"""Constructions the tests check the decoder against, built apart from it.

The Walsh matrices come from popcounts, entry by entry, rather than by the
doubling :func:`qostbc.walsh_basis` uses, and the real Gram matrix comes from
the channel minors, not from any basis.  The paper's nested combining chain
decodes without any basis, in floating point.
"""

import numpy as np

from qostbc import encoded_channel_minors, permutation_indexes


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


def symbol_order(k):
    """Symbol index (1-based) carried by each raw output of :func:`chain_decode`.

    Starts from the columns ``[1..K/2]`` and ``[K/2+1..K]`` and splits each
    into its p0 and p1 rows at every stage, as the chain splits its vectors.
    """
    cols = [np.arange(1, k // 2 + 1), np.arange(k // 2 + 1, k + 1)]
    while len(cols[0]) > 1:
        pair = permutation_indexes(len(cols[0]))
        cols = [c[q - 1] for c in cols for q in (pair.p0, pair.p1)]
    return np.concatenate(cols)


def chain_decode(received, channels, k):
    """Decode one block with the paper's nested combining chain.

    Takes the inputs of :func:`qostbc.decode`.  The matched filter gives two
    half-length vectors, each the reduced matrix ``M = conj(H1 H1^H + H2
    H2^H) / 2``, summed over antennas, times one symbol half.  Each stage
    advances the vectors by the two current matrices ``m1, m2``, splits
    them and ``m1^T m2`` along :func:`permutation_indexes`, and carries the
    two diagonal blocks on, until each vector holds one symbol.  No stage
    rescales: the entries square per stage, which a double holds at small K.

    Returns ``(estimates, gain, raw)``: the estimates in natural order, the
    absolute combining gain and the outputs before the final division, in
    :func:`symbol_order`.
    """
    r = np.asarray(received, dtype=complex).reshape(k, -1).T  # (n_r, K)
    h1, h2 = encoded_channel_minors(np.atleast_2d(channels), k)
    half = k // 2
    c = np.einsum("rij,ri->j", h1.conj(), r[:, :half]) + np.einsum("rij,ri->j", h2, r[:, half:].conj())
    vecs = c.reshape(2, half)
    m1 = m2 = (h1 @ np.swapaxes(h1, 1, 2).conj() + h2 @ np.swapaxes(h2, 1, 2).conj()).conj().sum(0) / 2
    while len(m1) > 1:
        # even rows carry m1-type combinations and advance by m2, odd rows
        # the other way round; both reach the same next-order product
        w = np.empty_like(vecs)
        w[0::2], w[1::2] = vecs[0::2] @ m2, vecs[1::2] @ m1
        pair = permutation_indexes(len(m1))
        q0, q1 = pair.p0 - 1, pair.p1 - 1
        g = m1.T @ m2
        m1, m2 = g[np.ix_(q0, q0)], g[np.ix_(q1, q1)]
        vecs = np.stack([w[:, q0], w[:, q1]], axis=1).reshape(-1, len(q0))
    raw = vecs[:, 0]
    estimates = np.empty(k, dtype=complex)
    estimates[symbol_order(k) - 1] = raw / np.where(np.arange(k) % 2 == 0, m1[0, 0], m2[0, 0])
    return estimates, m1[0, 0].real, raw
