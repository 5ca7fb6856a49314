"""Constructions the tests check the decoder against, built apart from it.

The Walsh matrices come from popcounts, entry by entry, rather than by the
doubling :func:`qostbc.walsh_basis` uses, and the real Gram matrix comes from
the channel minors, not from any basis.
"""

import numpy as np

from qostbc import encoded_channel_minors


def sylvester(half):
    """Sylvester-Hadamard ``W[i, j] = (-1)^popcount(i & j)`` of order ``half``."""
    popcount = np.array([bin(j).count("1") for j in range(half)])
    idx = np.arange(half)
    return (-1.0) ** popcount[idx[:, None] & idx[None, :]]


def walsh_dw(half):
    """``D W`` with ``D = diag(i^popcount(j))``."""
    phase = np.array([(1, 1j, -1, -1j)[bin(j).count("1") % 4] for j in range(half)])
    return phase[:, None] * sylvester(half)


def real_form(v):
    """``(2K, 2K)`` real form of ``blockdiag(v, v)`` for ``v`` of order ``K/2``.

    Rows are ``[Re; Im]`` of the two symbol halves; columns ``4e .. 4e+3``
    hold column ``e`` of ``v`` in each symbol half, as is and rotated by ``i``.
    """
    half = len(v)
    cols = np.stack([v, 1j * v], axis=-1)  # (row, group, as is / rotated)
    # axes: Re/Im, symbol half, row; group, symbol half, as is / rotated
    signs = np.zeros((2, 2, half, half, 2, 2))
    for part in (0, 1):
        signs[0, part, :, :, part] = cols.real
        signs[1, part, :, :, part] = cols.imag
    return signs.reshape(4 * half, 4 * half)


def channel_gram(channels, k):
    """Real Gram matrix ``A^T A`` of the model ``[Re r; Im r] = A [Re s; Im s]``.

    ``channels`` is ``(..., n_r, n_t)``, or one receive antenna ``(n_t,)``;
    the result is ``(..., 2K, 2K)``, summed over receive antennas.
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
