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
channel.  :func:`qostbc.harness.verify` checks both on Gaussian integers,
the decomposition as the matched filter of one block, ``(K/2) c = V
(lambda * V^H s)`` for each symbol half with the ``lambda`` that
:func:`decode_batch` returns, in O(K^2) per block size.  So the decoder
forms neither the minors nor ``c``: per Walsh index the block is one
Alamouti pair (Alamouti, IEEE JSAC 1998; see
:func:`qostbc.channels.received_blocks`).  With ``g = V^H h`` for each
half of one antenna's gains, ``u = V^H r_top`` and ``w = conj(V^H r_bot)``,
the combiners ``sum_r conj(g_a) u + g_b w`` and ``sum_r conj(g_b) u - g_a
w`` give ``x = V^T s`` of each symbol half times ``lambda' = sum_r |g_a|^2
+ |g_b|^2``, and ``s = conj(V) x / (K/2)``.  Products with ``+-1`` and
``+-i`` are exact, so nearly singular channels keep their relative precision.

``V`` is the Kronecker power of ``[[1, 1], [i, -i]]``, and every product
with it is :func:`qostbc.codes._walsh_product`: one dense GEMM up to ``K/2
= 64``, two Kronecker factors beyond, none at ``K=2``.  The transforms are
laid out half and receive antenna first, ``(2, n_r, B, K/2)``, so every
product runs on whole contiguous arrays and the sums over the antennas
reduce the leading axis; the combiners are scaled by the real reciprocal
of ``lambda'``.
"""

from __future__ import annotations

import numpy as np

# nothing here calls encoded_channel_minors: bench/spans.py wraps it under this name
from .channels import _transforms, encoded_channel_minors
from .codes import _walsh_product

__all__ = ["DegenerateChannelError", "decode_batch"]

_EPS = np.finfo(float).eps


class DegenerateChannelError(ValueError):
    """The channel's Gram matrix is singular; the symbols cannot be separated."""


def decode_batch(received, channels, k: int = None, *, transforms=None):
    """Least-squares decoder over a leading batch of independent blocks.

    Parameters
    ----------
    received : array_like
        ``(B, K, n_r)`` received blocks.
    channels : array_like
        ``(B, n_r, n_t)`` channel gains as the receiver sees them, one
        vector per antenna and block.
    k : int, optional
        Block size; if given it must equal ``received.shape[1]``.  Only
        ``bench/test_bench.py`` still passes it.
    transforms : np.ndarray, optional
        ``qostbc.channels._gain_transforms(channels, K)``, when the caller
        has formed them already; the simulator shares them with
        :func:`~qostbc.channels.received_blocks`.

    Returns
    -------
    (estimates, eigenvalues) : tuple of np.ndarray
        ``(B, K)`` estimates in natural order and ``(B, K/2)`` Gram
        eigenvalues.  The eigenvalues are those of each half of the matched
        filter's ``P`` (see the module), in the Walsh order of
        :func:`walsh_basis`: ``lambda_e = sum_r |(V^T h_a)_e|^2 + |(V^T
        h_b)_e|^2`` belongs to column ``e`` of ``V = D W``.  The combiners'
        ``lambda'`` is this reversed: ``conj(D) = D diag((-1)^popcount(j))``
        maps row ``e`` of ``W`` to row ``e xor (K/2 - 1)``, so ``(V^H h)_e =
        (V^T h)_{e xor (K/2 - 1)}``.  Each is also an eigenvalue of the real
        Gram matrix of the block, four times over.  At ``K=2`` the single
        eigenvalue is the channel energy.

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
    g = _transforms(channels, k, transforms)
    # lambda reversed: |g|^2 of the (antenna, half) slices, summed in that order
    sq = np.square(g.view(float))
    sq = np.add(sq[..., 0::2], sq[..., 1::2], out=sq[..., 0::2])
    lam = np.add.reduce(sq.transpose(1, 0, 2, 3).reshape(2 * n_r, nbatch, half), axis=0)
    del sq
    singular = lam.min(axis=1) <= lam.max(axis=1) * (k * _EPS)
    if singular.any():
        raise DegenerateChannelError(
            f"singular channel Gram matrix in {np.count_nonzero(singular)} of {nbatch} blocks"
        )
    # conj(r) V = conj(V^H r) per half, with no conjugated copy of V: conj(u), w
    t = np.empty(g.shape, complex)
    np.conjugate(received.reshape(nbatch, 2, half, n_r).transpose(1, 3, 0, 2), out=t)
    t = _walsh_product(t)
    # conj(x) lambda' of both symbol halves, summed over the antennas
    y = np.empty((2, nbatch, half), complex)
    p, q = np.empty(g.shape, complex)
    (ga, gb), (t0, t1) = g, t
    np.multiply(ga, t0, out=p)
    np.conjugate(np.multiply(gb, t1, out=q), out=q)
    np.add.reduce(np.add(p, q, out=p), axis=0, out=y[0])
    np.multiply(gb, t0, out=p)
    np.conjugate(np.multiply(ga, t1, out=q), out=q)
    np.add.reduce(np.subtract(p, q, out=p), axis=0, out=y[1])
    del p, q, t, t0, t1
    # y / (lambda' K/2) as products with a real reciprocal, written out for
    # both parts of each entry: numpy divides by a complex c + 0i as a product
    # with 1 / c, and a product with c + 0i scales each part by c, so the bits
    # are the same at a fraction of the cost; (1 / (K/2)) / lambda' is
    # 1 / (lambda' K/2), as K/2 is a power of two
    scale = np.empty((nbatch, half, 2))
    np.divide(1 / half, lam, out=scale[..., 0])
    np.positive(scale[..., 0], out=scale[..., 1])  # np.copyto would copy through a buffer
    for part in y.view(float).reshape(2, nbatch, half, 2):
        part *= scale
    # conj(V) x / (K/2) = conj(conj(x) V^T) / (K/2), back in natural order
    y = _walsh_product(y, transpose=True)
    est = np.empty((nbatch, 2, half), complex)
    np.conjugate(y.transpose(1, 0, 2), out=est)
    return est.reshape(nbatch, k), lam[:, ::-1]
