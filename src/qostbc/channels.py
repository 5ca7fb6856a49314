"""Channel-side rearrangement of the space-time code.

For a block-fading channel the received block can be written two ways:

    r = C(s) . h  =  [[H1, 0], [0, H2]] . [s; conj(s)] + noise

``H1`` and ``H2`` are ``K/2 x K`` minors assembled from the channel gains
alone.  ``H1`` is the upper half of the "channel" manifold of the
zero-extended gain vector; ``H2`` is the upper half of the "combining"
manifold of the half-swapped gain vector.  The decoder consumes only these
minors, so the sparse ``K x 2K`` block matrix is never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import abba_manifold, _is_power_of_two

__all__ = [
    "EncodedChannel",
    "extend_channel",
    "modify_channel",
    "encoded_channel_minors",
    "build_encoded_channel",
    "augmented",
    "apply_encoded_channel",
    "symbolic_minors",
    "minors_to_text",
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

    Returns
    -------
    (h1, h2) : tuple of np.ndarray
        Arrays of shape ``(..., K/2, K)``.
    """
    hp = extend_channel(h, k)
    return _upper_half(hp, "channel"), _upper_half(modify_channel(hp), "combining")


def _upper_half(vec, generator):
    # the top rows of both templates are [A, +-B], with A and B the
    # manifolds of the two halves of the vector, so the lower half of the
    # full manifold is never built
    k = vec.shape[-1]
    halves = abba_manifold(vec.reshape(vec.shape[:-1] + (2, k // 2)), generator)
    b = halves[..., 1, :, :]
    return np.concatenate([halves[..., 0, :, :], b if generator == "channel" else -b], axis=-1)


@dataclass(frozen=True)
class EncodedChannel:
    """Dense minors of the encoded channel matrix for one receive antenna."""

    k: int
    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        want = (self.k // 2, self.k)
        if self.h1.shape != want or self.h2.shape != want:
            raise ValueError(f"minors must have shape {want}")


def build_encoded_channel(h, k: int) -> EncodedChannel:
    """Assemble the encoded channel minors for a single gain vector."""
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if h.ndim != 1:
        raise ValueError("expected a single 1-D gain vector")
    h1, h2 = encoded_channel_minors(h, k)
    return EncodedChannel(k, h1, h2)


def augmented(s) -> np.ndarray:
    """Stack ``[s, conj(s)]`` along the last axis."""
    s = np.asarray(s)
    return np.concatenate([s, np.conj(s)], axis=-1)


def apply_encoded_channel(enc: EncodedChannel, sbar) -> np.ndarray:
    """Apply the block-diagonal encoded channel to an augmented vector.

    ``sbar`` must be ``[s, conj(s)]`` of length ``2K``; the result equals
    ``C(s) . h`` for the matching code and gains.
    """
    sbar = np.asarray(sbar)
    k = enc.k
    if sbar.shape[-1] != 2 * k:
        raise ValueError(f"augmented vector length {sbar.shape[-1]} != 2K={2 * k}")
    top = sbar[..., :k] @ enc.h1.T
    bot = sbar[..., k:] @ enc.h2.T
    return np.concatenate([top, bot], axis=-1)


def symbolic_minors(k: int, n_t: int = None):
    """Minors as signed 1-based gain indices (0 marks a punctured antenna).

    Running the same recursion over the integers ``1..n_t`` padded with
    zeros yields the sign/index pattern of the minors exactly; useful for
    golden-data tests and for the text dump.
    """
    if n_t is None:
        n_t = k
    idx = np.arange(1, n_t + 1, dtype=np.int32)
    return encoded_channel_minors(idx, k)


def minors_to_text(k: int, n_t: int = None) -> str:
    """Text dump of both symbolic minors, entries rendered like ``-h12``."""

    def fmt(v: int) -> str:
        if v == 0:
            return "   0 "
        return "{}h{:<3d}".format("-" if v < 0 else " ", abs(v))

    h1, h2 = symbolic_minors(k, n_t)
    lines = []
    for name, m in (("H1", h1), ("H2", h2)):
        lines.append(f"{name} ({m.shape[0]}x{m.shape[1]}):")
        for row in m:
            lines.append(" ".join(fmt(int(v)) for v in row))
    return "\n".join(lines)
