"""Channel-side rearrangement of the space-time code.

For a block-fading channel the received block can be written two ways:

    r = C(s) . h  =  [[H1, 0], [0, H2]] . [s; conj(s)] + noise

``H1`` and ``H2`` are ``K/2 x K`` minors assembled from the channel gains
alone.  ``H1`` is the upper half of the "channel" manifold of the
zero-extended gain vector; ``H2`` is the upper half of the "combining"
manifold of the half-swapped gain vector.  The decoder consumes only these
minors, so the sparse ``K x 2K`` block matrix is never materialised.

Every minor entry is ``+h_j``, ``-h_j`` or ``0``, in a pattern fixed by
``(K, n_t)``.  The recursion runs once per pair, over the signed integers
``1..n_t`` (:func:`symbolic_minors`), and is kept as two read-only index
tables into ``[0, h, -h]``; :func:`encoded_channel_minors` is one gather
per minor through them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import abba_manifold, _is_power_of_two, _signed_gather

__all__ = [
    "extend_channel",
    "modify_channel",
    "encoded_channel_minors",
    "symbolic_minors",
]


def extend_channel(h, k: int) -> np.ndarray:
    """Zero-pad gains to length ``k`` (unused antennas are trailing zeros)."""
    h = np.asarray(h)
    n_t = h.shape[-1]
    if n_t > k:
        raise ValueError(f"n_t={n_t} exceeds K={k}")
    if not _is_power_of_two(k):
        raise ValueError(f"K={k} is not a power of two")
    pad = [(0, 0)] * (h.ndim - 1) + [(0, k - n_t)]
    return np.pad(h, pad)


def modify_channel(hplus) -> np.ndarray:
    """Swap the two halves of an extended gain vector."""
    hplus = np.asarray(hplus)
    k = hplus.shape[-1]
    if k % 2:
        raise ValueError("length must be even")
    return np.concatenate([hplus[..., k // 2 :], hplus[..., : k // 2]], axis=-1)


def encoded_channel_minors(h, k: int):
    """Both ``K/2 x K`` minors for gains ``h`` of shape ``(..., n_t)``.

    Each minor is one gather from ``[0, h, -h]`` (along the last axis)
    through the cached tables of :func:`_minor_tables`; the output equals
    the recursion of :func:`symbolic_minors` evaluated on ``h`` itself, in
    the dtype of ``h``.

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

    A signed index ``v`` of :func:`symbolic_minors` maps to ``v`` if
    positive, ``n_t + |v|`` if negative and ``0`` (the zero slot) if zero.
    """
    tables = []
    for m in symbolic_minors(k, n_t):
        t = np.where(m < 0, n_t - m, m).astype(np.intp)
        t.flags.writeable = False
        tables.append(t)
    return tuple(tables)


def _upper_half(vec, generator):
    # the top rows of both templates are [A, +-B], with A and B the
    # manifolds of the two halves of the vector, so the lower half of the
    # full manifold is never built
    k = vec.shape[-1]
    halves = abba_manifold(vec.reshape(vec.shape[:-1] + (2, k // 2)), generator)
    b = halves[..., 1, :, :]
    return np.concatenate([halves[..., 0, :, :], b if generator == "channel" else -b], axis=-1)


def symbolic_minors(k: int, n_t: int = None):
    """Minors as signed 1-based gain indices (0 marks a punctured antenna).

    This is the recursion itself, run over the integers ``1..n_t`` padded
    with zeros: ``H1`` is the upper half of the "channel" manifold and
    ``H2`` that of the "combining" manifold of the half-swapped vector.  It
    yields the sign/index pattern of the minors exactly and is the source of
    the gather tables of :func:`encoded_channel_minors`.
    """
    if n_t is None:
        n_t = k
    hp = extend_channel(np.arange(1, n_t + 1, dtype=np.int32), k)
    return _upper_half(hp, "channel"), _upper_half(modify_channel(hp), "combining")

