"""The channel minors, read off the code's own gather table.

For a block-fading channel the received block can be written two ways:

    r = C(s) . h  =  [H1 s ; H2 conj(s)] + noise

``H1`` and ``H2`` are ``K/2 x K`` minors assembled from the channel gains
alone.  They are the code matrix read one more way: row ``t`` of the top
half of the code (:func:`qostbc.codes.build_mother`) carries ``+-s_r`` on
antenna ``a``, so row ``t`` of ``H1`` carries ``+-h_a`` in column ``r``;
the bottom half carries ``+-conj(s_r)`` and gives ``H2`` the same way.
Antennas beyond ``n_t`` are punctured and leave a zero.  The decoder
consumes only these minors, so the sparse ``K x 2K`` block matrix is never
materialised.

Every minor entry is ``+h_a``, ``-h_a`` or ``0``, in a pattern fixed by
``(K, n_t)``.  It is kept as two read-only index tables into ``[0, h, -h]``;
:func:`encoded_channel_minors` is one gather per minor through them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import build_mother, _signed_gather

__all__ = ["encoded_channel_minors"]


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
