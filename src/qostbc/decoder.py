"""Symbol-by-symbol decoding through one fixed basis per block size.

One block on one receive antenna reads ``r = [H1 s; H2 conj(s)]`` with the
``K/2 x K`` channel minors of :mod:`qostbc.channels`.  Its matched filter
``c = H1^H r_top + H2^T conj(r_bot)`` is complex-linear in the symbols:
summed over the receive antennas, a noiseless block gives ``c = P s`` with
``P = H1^H H1 + H2^T conj(H2)``.  The decoder returns the least-squares
(zero-forcing) estimate ``P^-1 c`` without inverting a matrix, because one
fixed matrix diagonalises ``P`` for every channel:

    P = blockdiag(V diag(lambda) V^H, V diag(lambda) V^H) / (K/2)

Here ``V = D W`` (:func:`qostbc.codes.walsh_basis`), with the
Sylvester-Hadamard matrix ``W[i, j] = (-1)^popcount(i & j)`` of order
``K/2`` and ``D = diag(i^popcount(j))``.  The off-diagonal halves of ``P``
vanish, so each half of ``c`` sees one half of the symbols, and both halves
see the same ``K/2``-square matrix.  Every ABBA manifold is diagonalised by tensor powers
of the eigenvectors ``(1, +-i)`` of ``J = [[0, 1], [-1, 0]]``, and the
columns of ``D W`` are those tensor powers, so they are eigenvectors of
that matrix for any channel.  This is the decoupling of symbol groups that
quasi-orthogonal codes are built on (Jafarkhani, IEEE Trans. Commun.
2001); at ``K=2``, ``V = [[1]]`` and the decoder is Alamouti's combiner.

The decomposition is exact.  Every entry of ``V`` is ``+-1`` or ``+-i`` and
``V^H V = (K/2) I``, so ``V`` carries no rounding and depends on no
channel; :func:`qostbc.harness.verify` checks both identities on integers.
The eigenvalues are read off the channel in Walsh order, ``lambda_e =
sum_r |(V^T h_a)_e|^2 + |(V^T h_b)_e|^2`` with ``h_a`` the first ``K/2``
gains of antenna ``r`` and ``h_b`` the rest, zero-padded: the per-index
gains of an Alamouti combiner.  Products with ``+-1`` and ``+-i`` are
exact, so nearly singular channels keep their relative precision.  Each
half of the estimate is ``V diag(1 / ((K/2) lambda)) V^H`` times that half
of ``c``, with ``c`` from the encoded channel minors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import encoded_channel_minors
from .codes import _is_power_of_two, walsh_basis

__all__ = [
    "PermutationPair",
    "DecodeResult",
    "DegenerateChannelError",
    "permutation_indexes",
    "decode",
    "decode_batch",
]


class DegenerateChannelError(ValueError):
    """The channel's Gram matrix is singular; the symbols cannot be separated."""


@dataclass(frozen=True)
class PermutationPair:
    """Complementary 1-based index sets splitting ``1..N`` in half."""

    p0: np.ndarray
    p1: np.ndarray


def permutation_indexes(n: int) -> PermutationPair:
    """Index split describing the real quasi-orthogonality pattern.

    With ``p(x) = (x + sum_{j>=1} floor((x-1)/2^j)) mod 2`` (the sum runs
    up to ``log2(N)-1`` terms), ``p0`` collects the ``x`` with ``p(x)=1``
    and ``p1`` the rest.  The ``p0`` columns (rows) of a reduced channel
    matrix are real-orthogonal to its ``p1`` columns (rows).

    The sets are prefix-consistent: the first ``N/2`` entries of each set
    for size ``N`` are the sets for size ``N/2``.
    """
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"N={n} must be a power of two >= 2")
    x = np.arange(1, n + 1)
    p = x.copy()
    for j in range(1, int(np.log2(n))):
        p = p + (x - 1) // (2**j)
    p = p % 2
    return PermutationPair(x[p == 1], x[p == 0])


def _split_blocks(g):
    """Split ``g`` of shape ``(..., n, n)`` along :func:`permutation_indexes` ``(n)``.

    Returns ``(g00, g11), (g01, g10), (q0, q1)``: the two diagonal blocks,
    the two off-blocks and the 0-based index sets, with ``gab`` the rows
    ``qa`` and columns ``qb`` of ``g``.  The paper's nested chain rests on
    the off-blocks vanishing at every order, which
    :func:`qostbc.harness.reduction_residuals` checks with this split.
    """
    pair = permutation_indexes(g.shape[-1])
    q0, q1 = pair.p0 - 1, pair.p1 - 1
    return (
        (g[..., q0[:, None], q0], g[..., q1[:, None], q1]),
        (g[..., q0[:, None], q1], g[..., q1[:, None], q0]),
        (q0, q1),
    )


def _matched_filter(r, h1, h2):
    """Complex form ``c`` of the matched filter, ``[Re c; Im c] = A^T [Re r; Im r]``.

    ``r`` is ``(..., m, K)``: ``m`` received blocks of one antenna as rows.
    With the minors ``h1, h2`` of shape ``(..., K/2, K)`` this is
    ``c = H1^H r_top + H2^T conj(r_bot)``, shape ``(..., m, K)``.  For a
    noiseless block its first and second halves depend only on the first
    and second symbol halves.
    """
    half = r.shape[-1] // 2
    c = r[..., :half].conj() @ h1
    np.conjugate(c, out=c)
    c += r[..., half:].conj() @ h2
    return c


@dataclass(frozen=True)
class DecodeResult:
    """Soft estimates in natural order plus the block's Gram eigenvalues.

    ``eigenvalues`` are the ``K/2`` eigenvalues of each half of the matched
    filter's ``P`` (see the module), in the Walsh order of
    :func:`walsh_basis`: ``lambda_e`` belongs to column ``e`` of ``D W``.
    Each is also an eigenvalue of the real Gram matrix of the block, four
    times over.  At ``K=2`` the single eigenvalue is the channel energy.
    """

    estimates: np.ndarray
    eigenvalues: np.ndarray


def decode_batch(received, channels, k: int = None):
    """Least-squares decoder over a leading batch of independent blocks.

    Parameters
    ----------
    received : array_like
        ``(B, K, n_r)`` received blocks.
    channels : array_like
        ``(B, n_r, n_t)`` channel gains as the receiver sees them, one
        vector per antenna and block.
    k : int, optional
        Block size; defaults to ``received.shape[1]``.

    Returns
    -------
    (estimates, eigenvalues) : tuple of np.ndarray
        ``(B, K)`` estimates in natural order and ``(B, K/2)`` Gram
        eigenvalues.

    Raises
    ------
    DegenerateChannelError
        A block's Gram matrix has an eigenvalue that is zero to rounding,
        relative to its largest eigenvalue.
    """
    received = np.asarray(received, dtype=complex)
    channels = np.asarray(channels, dtype=complex)
    if received.ndim != 3 or channels.ndim != 3:
        raise ValueError("received must be (B, K, n_r) and channels (B, n_r, n_t)")
    nbatch, kk, n_r = received.shape
    if k is None:
        k = kk
    if kk != k or channels.shape[0] != nbatch or channels.shape[1] != n_r:
        raise ValueError("received/channels dimensions disagree")
    if channels.shape[2] > k:
        raise ValueError(f"n_t={channels.shape[2]} exceeds K={k}")
    half = k // 2
    v = walsh_basis(half)
    padded = np.zeros((nbatch, n_r, k), dtype=complex)
    padded[..., : channels.shape[2]] = channels
    p = padded.reshape(-1, half) @ v  # rows h_a, h_b of every antenna
    lam = (np.square(p.real) + np.square(p.imag)).reshape(nbatch, -1, half).sum(axis=1)
    singular = lam.min(axis=1) <= k * np.finfo(float).eps * lam.max(axis=1)
    if np.any(singular):
        raise DegenerateChannelError(
            f"singular channel Gram matrix in {int(singular.sum())} of {nbatch} blocks"
        )
    r = np.swapaxes(received, 1, 2)[..., None, :]  # (B, nr, 1, K)
    c = _matched_filter(r, *encoded_channel_minors(channels, k)).sum(axis=1)[:, 0]
    # rows are symbol halves: each is c_half^T conj(V) diag(1 / ((K/2) lambda)) V^T
    y = (c.reshape(-1, half) @ v.conj()).reshape(nbatch, 2, half)
    y /= (lam * half)[:, None]
    return (y.reshape(-1, half) @ v.T).reshape(nbatch, k), lam


def decode(received, channels, k: int = None) -> DecodeResult:
    """Decode one received block (possibly from several receive antennas).

    Parameters
    ----------
    received : array_like
        ``(K,)`` or ``(K, n_r)`` received samples.
    channels : array_like
        ``(n_t,)`` or ``(n_r, n_t)`` channel gains (length ``n_t <= K``).
    k : int, optional
        Block size; inferred from ``received`` when omitted.

    Returns
    -------
    DecodeResult
        In the noiseless case ``estimates`` equals the transmitted symbol
        vector to numerical precision.
    """
    received = np.asarray(received)
    if received.ndim == 1:
        received = received[:, None]
    est, lam = decode_batch(received[None], np.atleast_2d(channels)[None], k)
    return DecodeResult(est[0], lam[0])
