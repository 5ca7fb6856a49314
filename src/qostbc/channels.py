"""The received block, as the channel minors and through the code's Walsh basis.

For a block-fading channel the received block can be written two ways:

    r = C(s) . h  =  [H1 s ; H2 conj(s)] + noise

``H1`` and ``H2`` are ``K/2 x K`` minors assembled from the channel gains
alone.  They are the code matrix read one more way: row ``t`` of the top
half of the code (:func:`qostbc.codes.build_mother`) carries ``+-s_r`` on
antenna ``a``, so row ``t`` of ``H1`` carries ``+-h_a`` in column ``r``;
the bottom half carries ``+-conj(s_r)`` and gives ``H2`` the same way.
Antennas beyond ``n_t`` are punctured and leave a zero.  Only the exact
checks of :func:`qostbc.harness.verify` form them: it checks them against
the code, forms the matched filter ``c = H1^H r_top + H2^T conj(r_bot)``
with them, and runs the paper's reduction chain on them modulo a prime.
Neither the simulator nor the decoder forms them.

Every minor entry is ``+h_a``, ``-h_a`` or ``0``.  Like the code, each
minor is a signed dyadic convolution: entry ``(t, r)`` is ``+-h~[t xor
r]`` (or ``u = t + K/2`` in place of ``t`` for ``H2``) of the gains ``h~``
zero-padded to ``K``, with a sign given by a popcount parity.
:func:`encoded_channel_minors` computes those indices and signs for each
call and gathers each minor in one pass; nothing of size ``K^2`` is kept.

The simulator forms ``r`` a third way, :func:`received_blocks`, with
neither the transmit matrix nor the minors: every manifold is diagonal in
the code's fixed basis (:func:`qostbc.codes.walsh_basis`), so the block is
``K/2`` Alamouti products (Alamouti, IEEE JSAC 1998) between transforms of
the symbols and of the gains, the transforms the decoder inverts it with.
Every transform is :func:`qostbc.codes._walsh_product`, one Kronecker
factor of the basis at a time.
"""

from __future__ import annotations

import numpy as np

from .codes import _is_power_of_two, _walsh_product

__all__ = ["encoded_channel_minors", "received_blocks"]


def received_blocks(symbols, gains, *, transforms=None):
    """Noiseless received blocks ``r = C(s) h`` of a batch, in the Walsh domain.

    With ``V = walsh_basis(K/2)`` each manifold is ``T(v) = V diag(V^T v)
    V^H / (K/2)``.  So with ``x = V^T s`` for each symbol half and ``g = V^H
    h`` for each half of one receive antenna's gains, zero-padded to ``K``
    (puncturing is zero-padding), the top and bottom halves of the block are

        r_top = V (x1 g_a + x2 g_b) / (K/2)
        r_bot = V (conj(x1) g_b - conj(x2) g_a) / (K/2).

    Every product with ``V`` is one :func:`~qostbc.codes._walsh_product`
    over the whole batch, and at ``K=2`` there is none; the rest is
    elementwise on contiguous ``(B, K/2)`` arrays, one receive antenna and
    half at a time, so that numpy runs each as one flat loop and needs no
    buffer.  Neither the ``(K, n_t)`` transmit matrix nor the minors are
    formed.

    Parameters
    ----------
    symbols : array_like
        ``(B, K)`` complex symbols, ``K`` a power of two >= 2.
    gains : array_like
        ``(B, n_r, n_t)`` channel gains, ``n_t <= K``.
    transforms : np.ndarray, optional
        ``_gain_transforms(gains, K)``, when the caller has formed them
        already; the simulator shares them with the decoder.

    Returns
    -------
    np.ndarray
        ``(B, K, n_r)`` received blocks, equal to ``encode(puncture(
        build_mother(K), n_t), s) @ gains^T`` block by block.
    """
    symbols = np.asarray(symbols, dtype=complex)
    gains = np.asarray(gains, dtype=complex)
    if symbols.ndim != 2 or gains.ndim != 3:
        raise ValueError("symbols must be (B, K) and gains (B, n_r, n_t)")
    nbatch, n_r, n_t = gains.shape
    if symbols.shape[0] != nbatch:
        raise ValueError(f"{symbols.shape[0]} blocks of symbols but {nbatch} of gains")
    k = symbols.shape[1]
    if n_t > k:
        raise ValueError(f"n_t={n_t} exceeds K={k}")
    half = k // 2
    g = _transforms(gains, k, transforms)
    # x = V^T s of both halves, (2, B, K/2); at K=2, V = [[1]] and x is a copy of s
    x = _walsh_product(symbols.reshape(nbatch, 2, half).transpose(1, 0, 2).copy())
    if half > 1:  # the 1 / (K/2) of r, exact for a power of two
        x /= half
    # y = (x1 g_a + x2 g_b, conj(x1) g_b - conj(x2) g_a) per receive antenna,
    # (n_r, 2, B, K/2), and r = y V^T read as (B, K, n_r); at K=2, r is y, and
    # each y[r, j] is one strided column of it
    out = np.empty((nbatch, k, n_r), complex)
    rt = out.reshape(nbatch, 2, half, n_r).transpose(3, 1, 0, 2)
    y = rt if half == 1 else np.empty(rt.shape, complex)
    term = np.empty((nbatch, half), complex)
    ga, gb = g
    for r in range(n_r):
        np.multiply(x[0], ga[r], out=y[r, 0])
        y[r, 0] += np.multiply(x[1], gb[r], out=term)
    np.conjugate(x, out=x)
    for r in range(n_r):
        np.multiply(x[0], gb[r], out=y[r, 1])
        y[r, 1] -= np.multiply(x[1], ga[r], out=term)
    if half > 1:
        np.copyto(rt, _walsh_product(y, transpose=True))
    return out


def _gain_transforms(gains, k: int):
    """Transforms ``g = V^H h`` of the halves ``h_a, h_b`` of ``(B, n_r, n_t)``
    gains, zero-padded to ``K``, laid out ``(2, n_r, B, K/2)``.

    The layout puts the half and the receive antenna first, so ``g[j]`` is
    one contiguous ``(n_r, B, K/2)`` array and ``g[j, r]`` one contiguous
    ``(B, K/2)`` array: the decoder's products run on whole arrays, and its
    sums over the antennas reduce the leading axis.
    """
    nbatch, n_r, n_t = gains.shape
    half = k // 2
    if not _is_power_of_two(half):
        raise ValueError(f"K/2={half} is not a power of two")
    # the halves zero-padded; at K=2, V = [[1]] and they are g itself
    padded = np.empty((2, n_r, nbatch, half), complex)
    h = gains.transpose(1, 0, 2)
    for j, part in enumerate((h[..., :half], h[..., half:])):
        n = part.shape[-1]
        np.copyto(padded[j, ..., :n], part)
        if n < half:  # punctured antennas
            padded[j, ..., n:] = 0
    if half == 1:
        return padded
    # g = h conj(V) = conj(conj(h) V), with no conjugated copy of V
    np.conjugate(padded, out=padded)
    g = _walsh_product(padded)
    return np.conjugate(g, out=g)


def _transforms(gains, k: int, given=None):
    """``given`` after a shape check, or else ``_gain_transforms(gains, k)``."""
    if given is None:
        return _gain_transforms(gains, k)
    nbatch, n_r, _ = gains.shape
    if given.shape != (2, n_r, nbatch, k // 2):
        raise ValueError(f"gain transforms of shape {given.shape} are not (2, {n_r}, {nbatch}, {k // 2})")
    return given


def encoded_channel_minors(h, k: int):
    """Both ``K/2 x K`` minors for gains ``h`` of shape ``(..., n_t)``.

    Each minor is one gather from ``[h~, -h~]`` (along the last axis), with
    ``h~`` the gains zero-padded to ``K``, through the indices of
    :func:`_minor_indices`, in the dtype of ``h``.

    Returns
    -------
    (h1, h2) : tuple of np.ndarray
        C-contiguous arrays of shape ``(..., K/2, K)``.
    """
    h = np.asarray(h)
    n_t = h.shape[-1]
    if not _is_power_of_two(k) or k < 2:
        raise ValueError(f"K={k} must be a power of two >= 2")
    if n_t > k:
        raise ValueError(f"n_t={n_t} exceeds K={k}")
    signed = np.zeros(h.shape[:-1] + (2 * k,), h.dtype)
    signed[..., :n_t] = h
    np.negative(h, out=signed[..., k : k + n_t])
    # np.take keeps the result C-contiguous; fancy indexing would put the
    # leading axes innermost
    return tuple(np.take(signed, index, axis=-1) for index in _minor_indices(k))


def _minor_indices(k: int):
    """Indices of both minors into ``[h~, -h~]``, for the gains ``h~``
    zero-padded to ``K``: ``H[t, r]`` is entry ``index[t, r]``.

    With ``u = t + K/2``,

        H1[t, r] = (-1)^popcount(t & r) h~[t xor r]
        H2[t, r] = (-1)^(popcount(r & (K/2 - 1)) + popcount(u & r)) h~[u xor r],

    so the index is ``t xor r`` (or ``u xor r``), plus ``K`` where the
    popcount is odd.  This is the channel-side form of the code, worked out
    on its own rather than read off :func:`qostbc.codes._code_indices`, so
    that the check of ``[H1 s; H2 conj(s)]`` against ``C(s) h`` compares two
    closed forms.  Puncturing is the zero padding: a punctured antenna
    leaves a zero.
    """
    half = k // 2
    t = np.arange(half, dtype=np.min_scalar_type(k - 1))[:, None]
    r = np.arange(k, dtype=t.dtype)
    u = t + half
    flips2 = np.bitwise_count(u & r)
    flips2 += np.bitwise_count(r & (half - 1))
    indices = []
    for row, flips in ((t, np.bitwise_count(t & r)), (u, flips2)):
        flips &= 1
        index = flips.astype(np.intp)
        index *= k
        index += row ^ r
        indices.append(index)
    return tuple(indices)
