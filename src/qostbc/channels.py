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

Every minor entry is ``+h_a``, ``-h_a`` or ``0``, in a pattern fixed by
``(K, n_t)``.  It is kept as two read-only index tables into ``[0, h, -h]``;
:func:`encoded_channel_minors` is one gather per minor through them.

The simulator forms ``r`` a third way, :func:`received_blocks`, with
neither the transmit matrix nor the minors: every manifold is diagonal in
the code's fixed basis (:func:`qostbc.codes.walsh_basis`), so the block is
``K/2`` Alamouti products (Alamouti, IEEE JSAC 1998) between transforms of
the symbols and of the gains, the transforms the decoder inverts it with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import build_mother, walsh_basis, _signed_gather

__all__ = ["encoded_channel_minors", "received_blocks"]


def received_blocks(symbols, gains, k: int):
    """Noiseless received blocks ``r = C(s) h`` of a batch, in the Walsh domain.

    With ``V = walsh_basis(K/2)`` each manifold is ``T(v) = V diag(V^T v)
    V^H / (K/2)``.  So with ``x = V^T s`` for each symbol half and ``g = V^H
    h`` for each half of one receive antenna's gains, zero-padded to ``K``
    (puncturing is zero-padding), the top and bottom halves of the block are

        r_top = V (x1 g_a + x2 g_b) / (K/2)
        r_bot = V (conj(x1) g_b - conj(x2) g_a) / (K/2).

    Every product is a 2-D matmul with ``V`` over the whole batch, or
    elementwise; neither the ``(K, n_t)`` transmit matrix nor the minors
    are formed.

    Parameters
    ----------
    symbols : array_like
        ``(B, K)`` complex symbols.
    gains : array_like
        ``(B, n_r, n_t)`` channel gains, ``n_t <= K``.
    k : int
        Block size, a power of two >= 2.

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
    if symbols.shape != (nbatch, k):
        raise ValueError(f"symbols of shape {symbols.shape} are not ({nbatch}, K={k})")
    if n_t > k:
        raise ValueError(f"n_t={n_t} exceeds K={k}")
    half = k // 2
    v = walsh_basis(half)
    # the 1 / (K/2) of both halves, exact for a power of two
    x = (symbols.reshape(-1, half) @ v).reshape(nbatch, 1, 2, half) / half
    g = _gain_transforms(gains, k)
    x1, x2 = x[..., 0, :], x[..., 1, :]
    ga, gb = g[..., 0, :], g[..., 1, :]
    y = np.stack([x1 * ga + x2 * gb, x1.conj() * gb - x2.conj() * ga], axis=-2)
    r = (y.reshape(-1, half) @ v.T).reshape(nbatch, n_r, k)
    return np.swapaxes(r, 1, 2)


def _gain_transforms(gains, k: int):
    """``(B, n_r, 2, K/2)`` transforms ``g = V^H h`` of the halves ``h_a, h_b``
    of ``(B, n_r, n_t)`` gains, zero-padded to ``K``."""
    nbatch, n_r, n_t = gains.shape
    half = k // 2
    # g = h conj(V) = conj(conj(h) V), with no conjugated copy of V
    padded = np.zeros((nbatch, n_r, k), dtype=complex)
    np.conjugate(gains, out=padded[..., :n_t])
    g = (padded.reshape(-1, half) @ walsh_basis(half)).reshape(nbatch, n_r, 2, half)
    return np.conjugate(g, out=g)


def encoded_channel_minors(h, k: int):
    """Both ``K/2 x K`` minors for gains ``h`` of shape ``(..., n_t)``.

    Each minor is one gather from ``[0, h, -h]`` (along the last axis)
    through the cached tables of :func:`_minor_tables`, in the dtype of
    ``h``.

    Returns
    -------
    (h1, h2) : tuple of np.ndarray
        C-contiguous arrays of shape ``(..., K/2, K)``.
    """
    h = np.asarray(h)
    t1, t2 = _minor_tables(k, h.shape[-1])
    parts = (np.zeros(h.shape[:-1] + (1,), h.dtype), h, -h)
    return _signed_gather(parts, t1), _signed_gather(parts, t2)


@lru_cache(maxsize=32)
def _minor_tables(k: int, n_t: int):
    """Read-only index tables of both minors into ``[0, h_1..h_n_t, -h_1..-h_n_t]``.

    Code entry ``(t, a)`` holds raw symbol ``r`` with a sign; it puts
    ``h_a`` (slot ``a + 1``) or ``-h_a`` (slot ``n_t + a + 1``) at ``(t, r)``
    of the stacked minors ``[H1; H2]``, or the zero slot ``0`` when antenna
    ``a`` is punctured.  Each code row uses every raw symbol once, so every
    minor entry is written exactly once.
    """
    if n_t > k:
        raise ValueError(f"n_t={n_t} exceeds K={k}")
    table = build_mother(k).table
    raw, neg = table % k, table >= 2 * k
    a = np.arange(k)
    slot = np.where(a < n_t, a + 1 + n_t * neg, 0)
    out = np.empty((k, k), dtype=np.intp)
    np.put_along_axis(out, raw, slot, axis=1)
    out.flags.writeable = False
    return out[: k // 2], out[k // 2 :]
