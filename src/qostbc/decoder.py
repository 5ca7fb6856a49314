"""Symbol-by-symbol decoding through one fixed orthogonal basis per block size.

With real and imaginary parts stacked, one block obeys the real model
``[Re r; Im r] = A [Re s; Im s]``, where ``A`` (``2 K n_r`` by ``2K``)
depends on the channel only.  The decoder returns the least-squares
(zero-forcing) estimate ``G^-1 A^T y`` with the real Gram matrix
``G = A^T A``.

The Gram matrices of all channels lie in one commutative algebra fixed by
``K``.  Its ``K/2`` eigenprojectors ``P_g`` have rank 4 and every entry
equal to 0 or ``+-2/K``, so one orthogonal basis ``Q`` diagonalises every
channel's ``G = Q diag(lambda) Q^T``, each of the ``K/2`` eigenvalues
repeated four times.  This is the decoupling of symbol groups that
quasi-orthogonal codes are built on (Jafarkhani, IEEE Trans. Commun.
2001).  Decoding needs no matrix inversion.  ``S = sqrt(K/2) Q`` has
entries in ``{0, +-1}``, and the eigenvalues are read off the channel:
``lambda_g = (K/2) |P_g h|^2`` summed over receive antennas, with ``h`` the
stacked ``Re h`` and ``-Im h``, is two real products of the channel with
rows of ``S``, a square and a sum over each group's four columns.  The
``+-1`` products are exact, so nearly singular channels keep their
relative precision.  The estimate is ``S diag(2 / (K lambda)) S^T c =
Q diag(1/lambda) Q^T c``, with ``c = A^T y`` from the encoded channel minors.

:func:`fixed_basis` builds ``S`` in closed form.  Every ABBA manifold is
diagonalised by tensor powers of the eigenvectors ``(1, +-i)`` of ``J =
[[0, 1], [-1, 0]]``: with the Sylvester-Hadamard matrix ``W[i, j] =
(-1)^popcount(i & j)`` of order ``K/2`` and ``D = diag(i^popcount(j))``,
the columns of ``D W`` are eigenvectors of both ``K/2``-square halves of
every channel's complex Gram matrix ``H1^H H1 + H2^T conj(H2)``.  ``S`` is
the real form of ``blockdiag(D W, D W)``: group ``e`` holds the four real
columns from column ``e``, one per symbol half, each as is and rotated by
``i``.  Every entry of ``D W`` is ``+-1`` or ``+-i``, so ``S`` is exact,
with no rounding and no dependence on any channel;
:func:`qostbc.harness.verify` checks it exactly.  The eigenvalues come
in Walsh order, ``lambda_e = sum_r |(W D h_a)_e|^2 + |(W D h_b)_e|^2`` with
``h_a`` the first ``K/2`` gains of antenna ``r`` and ``h_b`` the rest,
zero-padded: the per-index gains of an Alamouti combiner.

The paper's nested combining chain exists once in floating point, as the
reference :func:`chain_decode`.  Per receive antenna it combines the
received block with the encoded channel minors into two half-length
vectors that depend on disjoint symbol halves: the first-order reduced
matrix ``M = conj(H1 H1^H + H2 H2^H) / 2`` maps each half to its vector.
At every order the real product of the two current matrices splits into
blocks along :func:`permutation_indexes`; the chain advances the vectors,
splits them the same way and carries the two diagonal blocks on, until
every symbol is decoupled.  It computes the same estimate and shows the paper's
structure: its raw output order (:func:`symbol_order`) and one gain shared
by every symbol.  It runs in complex128, where its precision degrades as
``K`` grows, so it serves tests at small ``K`` only.  The block splitting
itself is checked exactly, at any ``K``, by
:func:`qostbc.harness.reduction_residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import encoded_channel_minors
from .codes import _is_power_of_two

__all__ = [
    "PermutationPair",
    "FixedBasis",
    "DecodeResult",
    "ChainResult",
    "DecompositionError",
    "DegenerateChannelError",
    "permutation_indexes",
    "symbol_order",
    "channel_gram",
    "fixed_basis",
    "decode",
    "decode_batch",
    "chain_decode",
]

# Relative tolerance of the reference chain (chain_decode) for the
# block-diagonality of its permuted products, met in complex128 at the small
# K the chain serves; harness.reduction_residuals checks the same property
# exactly.
STRUCTURE_TOL = 1e-8

class DecompositionError(RuntimeError):
    """A structural property of the code failed to hold."""


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


def symbol_order(k: int) -> np.ndarray:
    """Symbol index (1-based) carried by each raw decoder output position.

    Starts from the two columns ``[1..K/2]`` and ``[K/2+1..K]`` and splits
    every column into its p0-prefix and p1-prefix rows at each stage, the
    same schedule the decoder applies to the combined vectors.
    """
    if not _is_power_of_two(k) or k < 2:
        raise ValueError(f"K={k} must be a power of two >= 2")
    cols = [np.arange(1, k // 2 + 1), np.arange(k // 2 + 1, k + 1)]
    if k > 2:
        pair = permutation_indexes(k // 2)
        for i in range(1, int(np.log2(k))):
            take = k // 2 ** (i + 1)
            q0, q1 = pair.p0[:take] - 1, pair.p1[:take] - 1
            cols = [c[q] for c in cols for q in (q0, q1)]
    return np.concatenate(cols)


def channel_gram(channels, k: int) -> np.ndarray:
    """Real Gram matrix ``A^T A`` of the model ``[Re r; Im r] = A [Re s; Im s]``.

    Parameters
    ----------
    channels : array_like
        ``(..., n_r, n_t)`` channel gains; a 1-D ``(n_t,)`` vector is one
        receive antenna.
    k : int

    Returns
    -------
    np.ndarray
        ``(..., 2K, 2K)``, summed over receive antennas.
    """
    channels = np.asarray(channels, dtype=complex)
    if channels.ndim == 1:
        channels = channels[None]
    h1, h2 = encoded_channel_minors(channels, k)
    # rows: the first K/2 epochs carry H1 s, the last K/2 carry H2 conj(s)
    a = np.concatenate(
        [
            np.concatenate([h1.real, -h1.imag], axis=-1),
            np.concatenate([h1.imag, h1.real], axis=-1),
            np.concatenate([h2.real, h2.imag], axis=-1),
            np.concatenate([h2.imag, -h2.real], axis=-1),
        ],
        axis=-2,
    )
    return (np.swapaxes(a, -1, -2) @ a).sum(axis=-3)


@dataclass(frozen=True)
class FixedBasis:
    """Eigenbasis shared by the real Gram matrices of every channel at one ``K``.

    ``signs`` is the read-only ``(2K, 2K)`` matrix ``S`` with entries in ``{0, +-1}``
    and orthogonal columns of ``K/2`` nonzeros; columns ``4g .. 4g+3`` span
    the ``g``-th eigenspace.
    """

    signs: np.ndarray

    def eigenvalues(self, channels) -> np.ndarray:
        """``(B, K/2)`` Gram eigenvalues of ``(B, n_r, n_t)`` channels; see the module."""
        nbatch, n_r, n_t = channels.shape
        k = len(self.signs) // 2
        p = channels.real.reshape(-1, n_t) @ self.signs[:n_t]
        p -= channels.imag.reshape(-1, n_t) @ self.signs[k : k + n_t]
        return np.square(p, out=p).reshape(nbatch, n_r, k // 2, 4).sum(axis=(1, 3))

    def error(self, channel) -> float:
        """``max(|Q^T Q - I|, |Q^T G Q - diag(lambda)| / max(lambda))`` for the
        real Gram ``G`` of the ``(n_t,)`` gains ``channel``, with ``Q = S /
        sqrt(K/2)`` and ``lambda`` from :meth:`eigenvalues`."""
        channel = np.asarray(channel, dtype=complex)
        n, s = len(self.signs), self.signs
        lam = self.eigenvalues(channel[None, None])[0] * (n / 4)
        d = s.T @ channel_gram(channel, n // 2) @ s
        d[np.diag_indices(n)] -= np.repeat(lam, 4)
        o = s.T @ s
        o[np.diag_indices(n)] -= n / 4
        return float(max(np.abs(d, out=d).max() / lam.max(), np.abs(o, out=o).max() / (n / 4)))


@lru_cache(maxsize=16)
def fixed_basis(k: int) -> FixedBasis:
    """The basis for block size ``k`` in closed form, built on first use and kept.

    Raises
    ------
    ValueError
        ``k`` is not a power of two >= 2.
    """
    if not _is_power_of_two(k) or k < 2:
        raise ValueError(f"K={k} must be a power of two >= 2")
    half = k // 2
    # Sylvester-Hadamard W and the phases i^popcount(j), by doubling
    w = np.ones((1, 1))
    phase = np.ones(1, dtype=complex)
    while len(w) < half:
        w = np.block([[w, w], [w, -w]])
        phase = np.concatenate([phase, 1j * phase])
    v = phase[:, None] * w
    cols = np.stack([v, 1j * v], axis=-1)  # (row, group, as is / rotated)
    # axes: Re/Im, symbol half, row; group, symbol half, as is / rotated
    signs = np.zeros((2, 2, half, half, 2, 2))
    for part in (0, 1):
        signs[0, part, :, :, part] = cols.real
        signs[1, part, :, :, part] = cols.imag
    signs = signs.reshape(2 * k, 2 * k)
    signs.flags.writeable = False
    return FixedBasis(signs)


@dataclass(frozen=True)
class DecodeResult:
    """Soft estimates in natural order plus the block's Gram eigenvalues.

    ``eigenvalues`` are the ``K/2`` distinct eigenvalues of the real Gram
    matrix, in the Walsh order of the column groups of
    :attr:`FixedBasis.signs`: ``lambda_e`` belongs to column ``e`` of ``D W``
    (see the module).  At ``K=2`` the single eigenvalue is the channel
    energy.
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
    basis = fixed_basis(k)
    lam = basis.eigenvalues(channels)
    singular = lam.min(axis=1) <= k * np.finfo(float).eps * lam.max(axis=1)
    if np.any(singular):
        raise DegenerateChannelError(
            f"singular channel Gram matrix in {int(singular.sum())} of {nbatch} blocks"
        )
    r = np.swapaxes(received, 1, 2)[..., None, :]  # (B, nr, 1, K)
    c = _matched_filter(r, *encoded_channel_minors(channels, k)).sum(axis=1)[:, 0]
    x = np.concatenate([c.real, c.imag], axis=-1)  # (B, 2K)
    est = ((x @ basis.signs) / np.repeat(lam * (k / 2), 4, axis=1)) @ basis.signs.T
    return est[:, :k] + 1j * est[:, k:], lam


def _single_block(received, channels):
    received = np.asarray(received, dtype=complex)
    if received.ndim == 1:
        received = received[:, None]
    channels = np.atleast_2d(np.asarray(channels, dtype=complex))
    return received[None], channels[None]


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
    est, lam = decode_batch(*_single_block(received, channels), k)
    return DecodeResult(est[0], lam[0])


@dataclass(frozen=True)
class ChainResult:
    """Output of the reference nested chain for one block.

    ``gain`` is the terminal normalisation scalar within the rescaled
    chain; the absolute combining gain is ``gain * exp(log_scale)`` (kept
    in log form because it overflows a double for large blocks).
    ``raw_estimates`` are the decoupled outputs before reordering and
    before the terminal division.
    """

    estimates: np.ndarray
    gain: float
    log_scale: float
    raw_estimates: np.ndarray


def chain_decode(received, channels, k: int = None) -> ChainResult:
    """Decode one block with the paper's nested combining chain.

    Takes the same inputs as :func:`decode` and computes the same estimate
    at small ``K``; see the module docstring for its role.
    """
    received, channels = _single_block(received, channels)
    if k is None:
        k = received.shape[1]
    h1, h2 = encoded_channel_minors(channels, k)
    est, gain, log_scale, raw = _combining_chain(received, h1, h2, k)
    return ChainResult(est[0], float(gain[0]), float(log_scale[0]), raw[0])


def _combining_chain(received, h1, h2, k):
    """The nested combining chain given precomputed minors."""
    nbatch = received.shape[0]
    r = np.transpose(received, (0, 2, 1))[..., None, :]  # (B, nr, 1, K)
    # antenna summation in fixed index order (reproducible reduction)
    c = _matched_filter(r, h1, h2)[:, :, 0].sum(axis=1)
    vecs = c.reshape(nbatch, 2, k // 2)
    # first-order reduced matrix conj(H1 H1^H + H2 H2^H) / 2, (B, K/2, K/2)
    g = h1 @ np.swapaxes(h1, -1, -2).conj() + h2 @ np.swapaxes(h2, -1, -2).conj()
    m1 = np.conj(g).sum(axis=1) / 2.0
    m2 = m1.copy()

    def _normalise(m1, m2, vecs, log_scale):
        nrm = np.linalg.norm(m1, axis=(1, 2))
        inv = 1.0 / nrm
        return (
            m1 * inv[:, None, None],
            m2 * inv[:, None, None],
            vecs * inv[:, None, None],
            log_scale + np.log(nrm),
        )

    log_scale = np.zeros(nbatch)
    m1, m2, vecs, log_scale = _normalise(m1, m2, vecs, log_scale)

    if k > 2:
        pair = permutation_indexes(k // 2)
        for i in range(1, int(np.log2(k))):
            take = k // 2 ** (i + 1)
            q0, q1 = pair.p0[:take] - 1, pair.p1[:take] - 1
            w = np.empty_like(vecs)
            # even columns carry m1-type combinations and are advanced by
            # m2^T, odd columns the other way round; both give the same
            # next-order product by commutation
            w[:, 0::2] = np.einsum("blm,bcl->bcm", m2, vecs[:, 0::2])
            w[:, 1::2] = np.einsum("blm,bcl->bcm", m1, vecs[:, 1::2])
            nxt = np.empty((nbatch, 2 * vecs.shape[1], take), dtype=complex)
            nxt[:, 0::2] = w[..., q0]
            nxt[:, 1::2] = w[..., q1]
            vecs = nxt
            ghat = np.einsum("blm,bln->bmn", m1, m2)
            # the off-blocks are algebraic zeros, so any residual must be
            # judged against the magnitude of the factors that formed the
            # product, not against the (possibly tiny) product itself
            off = np.maximum(
                np.abs(ghat[:, q0[:, None], q1[None, :]]).reshape(nbatch, -1).max(axis=1),
                np.abs(ghat[:, q1[:, None], q0[None, :]]).reshape(nbatch, -1).max(axis=1),
            )
            fscale = np.linalg.norm(m1, axis=(1, 2)) * np.linalg.norm(m2, axis=(1, 2))
            if np.any(off > STRUCTURE_TOL * fscale):
                worst = float((off / fscale).max())
                raise DecompositionError(
                    f"permuted product not block-diagonal at order {i} (K={k}): "
                    f"relative off-block {worst:.3e}"
                )
            m1 = ghat[:, q0[:, None], q0[None, :]]
            m2 = ghat[:, q1[:, None], q1[None, :]]
            # doubling of the accumulated scale before adding this stage's
            # normalisation: the matrix chain squares per stage
            log_scale = 2.0 * log_scale
            m1, m2, vecs, log_scale = _normalise(m1, m2, vecs, log_scale)

    raw = vecs[..., 0]  # (B, K)
    t1 = m1[:, 0, 0]
    t2 = m2[:, 0, 0]
    scal = np.where(np.arange(k) % 2 == 0, t1[:, None], t2[:, None])
    order = symbol_order(k)
    estimates = np.empty((nbatch, k), dtype=complex)
    estimates[:, order - 1] = raw / scal
    return estimates, t1.real, log_scale, raw
