"""Constructions the tests check the package against, built apart from it.

The code comes from the paper's recursive ABBA definition, which the package
replaces by a closed form.  The Walsh matrices come from popcounts, entry by
entry, rather than by the doubling :func:`qostbc.walsh_basis` uses, and the
matched filter and the real Gram matrix come from the channel minors, not
from any basis.  The paper's nested combining chain decodes without any
basis, in floating point.  The exact BER sums one angular integral per PSK
sector edge or QAM term, with one ``log1p`` per branch, as the definitions
read.
"""

from collections import Counter

import numpy as np

from qostbc import (
    encoded_channel_minors,
    permutation_indexes,
    psk_distance_spectrum,
    qam_bit_coefficients,
)
from qostbc.analysis import DEFAULT_POINTS
from qostbc.fading import m_to_hoyt_q, m_to_rice_k


def abba_manifold(vec) -> np.ndarray:
    """The paper's recursive block matrix of a length-``2**n`` vector.

    The vector is folded pairwise: neighbouring entries ``a`` and ``b`` are
    combined into ``[[a, b], [-b, a]]``, then neighbouring blocks are
    combined again with the same template, until a single square matrix
    remains.  This is equivalent to the top-down recursion ``T(first
    half), T(second half)`` wrapped once more with the template.  ``vec``
    is ``(..., K)`` of any numeric dtype; signed integers give the symbolic
    (index, sign) form.  Returns ``(..., K, K)``.
    """
    vec = np.asarray(vec)
    k = vec.shape[-1]
    if k < 1 or k & (k - 1):
        raise ValueError(f"vector length {k} is not a power of two")
    blocks = vec[..., :, None, None]
    while blocks.shape[-3] > 1:
        a = blocks[..., 0::2, :, :]
        b = blocks[..., 1::2, :, :]
        top = np.concatenate([a, b], axis=-1)
        bot = np.concatenate([-b, a], axis=-1)
        blocks = np.concatenate([top, bot], axis=-2)
    return blocks[..., 0, :, :]


def recursive_mother(k):
    """The ``(K, K)`` index table of the mother code into ``[s, conj(s), -s,
    -conj(s)]``, by the paper's recursion.

    The manifolds of the signed 1-based raw indices of the two symbol halves
    carry each entry's index and sign: ``[[A, B], [-B^T, A^T]]``, with the
    bottom half conjugated.
    """
    half = np.arange(1, k // 2 + 1)
    a = abba_manifold(half)
    b = abba_manifold(half + k // 2)
    signed = np.block([[a, b], [-b.T, a.T]])
    conj = np.repeat([0, k], k // 2)[:, None]
    return np.abs(signed) - 1 + conj + 2 * k * (signed < 0)


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


def matched_filter(r, h1, h2):
    """Complex form ``c`` of the matched filter, ``[Re c; Im c] = A^T [Re r; Im r]``.

    ``r`` is ``(..., m, K)``: ``m`` received blocks of one antenna as rows.
    With the minors ``h1, h2`` of shape ``(..., K/2, K)`` this is
    ``c = H1^H r_top + H2^T conj(r_bot)``, shape ``(..., m, K)``.  For a
    noiseless block its first and second halves depend only on the first
    and second symbol halves.
    """
    half = r.shape[-1] // 2
    return (r[..., :half].conj() @ h1).conj() + r[..., half:].conj() @ h2


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
        cols = [c[q - 1] for c in cols for q in permutation_indexes(len(cols[0]))]
    return np.concatenate(cols)


def chain_decode(received, channels, k):
    """Decode one block with the paper's nested combining chain.

    Takes one block: ``(K,)`` or ``(K, n_r)`` received samples and ``(n_t,)``
    or ``(n_r, n_t)`` gains.  The matched filter gives two
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
        q0, q1 = (p - 1 for p in permutation_indexes(len(m1)))
        g = m1.T @ m2
        m1, m2 = g[np.ix_(q0, q0)], g[np.ix_(q1, q1)]
        vecs = np.stack([w[:, q0], w[:, q1]], axis=1).reshape(-1, len(q0))
    raw = vecs[:, 0]
    estimates = np.empty(k, dtype=complex)
    estimates[symbol_order(k) - 1] = raw / np.where(np.arange(k) % 2 == 0, m1[0, 0], m2[0, 0])
    return estimates, m1[0, 0].real, raw


_X, _W = np.polynomial.legendre.leggauss(DEFAULT_POINTS)
_U = 0.5 * (_X + 1.0)


def branch_log_mgf(stat, y):
    """``log E[exp(-y gamma / gamma_bar)]`` of one branch, by ``log1p``."""
    if stat.family == "nakagami":
        return -stat.m * np.log1p(y / stat.m)
    if stat.family == "rayleigh" or stat.m == 1.0:
        return -np.log1p(y)
    if stat.family == "hoyt":
        q = m_to_hoyt_q(stat.m)
        p = (2.0 * q / (1.0 + q * q)) ** 2
        return -0.5 * np.log1p(y * (2.0 + p * y))
    k = m_to_rice_k(stat.m)
    y = y / (1.0 + k)
    return k / (1.0 + y) - np.log1p(y) - k


def sector_integral(delta, g, params, esno_db):
    """``(1/pi) int_0^{pi(1-delta)} prod_b mgf_b(-g / (rho sin^2 t))^(n_r eta) dt``.

    One signed integral over the sweep ``esno_db``, on the package's node
    rule (``DEFAULT_POINTS`` Gauss-Legendre nodes on ``u``, ``theta = upper
    * u**3``), with a sum of one log-MGF per branch; equal branches share
    one evaluation.  A point where a mean SNR is infinite integrates to 0.
    """
    counts = Counter(params.branches)
    distinct = list(counts)
    gbars = 10.0 ** (np.asarray(esno_db, dtype=float).reshape(-1, 1) / 10.0) * [
        b.omega for b in distinct]
    upper = np.pi * (1.0 - delta)
    s_abs = g / (params.rho * np.sin(upper * _U**3) ** 2)
    out = np.zeros(len(gbars))
    live = np.isfinite(gbars).all(axis=1)
    log_prod = sum(counts[stat] * branch_log_mgf(stat, gbars[live, j, None] * s_abs)
                   for j, stat in enumerate(distinct))
    out[live] = np.exp(params.n_r * params.eta * log_prod) @ (1.5 * _U * _U * _W)
    return out * upper / np.pi


def psk_ber_sectors(m, params, esno_db):
    """Gray M-PSK BER as the sum over the ``M - 1`` wrong sectors.

    Landing ``k`` sectors away costs ``s_k`` bits of
    :func:`~qostbc.psk_distance_spectrum` and has the probability ``I(d_lo)
    - I(d_hi)`` between its edges ``(2k -+ 1) / M``: ``2 (M - 1)``
    integrals, those beyond ``d = 1`` with a negative range.
    """
    bits = int(np.log2(m))
    spectrum = psk_distance_spectrum(m)
    total = 0.0
    for k in range(1, m):
        for d, sign in (((2 * k - 1) / m, 1.0), ((2 * k + 1) / m, -1.0)):
            total = total + sign * spectrum[k - 1] * sector_integral(
                d, np.sin(np.pi * d) ** 2, params, esno_db)
    return total / (2.0 * bits)


def qam_ber_terms(m, params, esno_db):
    """Gray square M-QAM BER with one integral per Q-function term.

    Term ``i`` carries the weights of :func:`~qostbc.qam_bit_coefficients`
    summed over the bits, and integrates over ``[0, pi/2]`` at ``g = 3 (2i +
    1)^2 / (2 (M - 1))``.
    """
    bits = int(np.log2(m))
    side = int(round(np.sqrt(m)))
    weights = np.zeros(side)
    for k in range(1, bits // 2 + 1):
        d = qam_bit_coefficients(m, k)
        weights[: len(d)] += d
    total = 0.0
    for i in np.flatnonzero(weights):
        g = 3.0 * (2 * i + 1) ** 2 / (2.0 * (m - 1))
        total = total + weights[i] * sector_integral(0.5, g, params, esno_db)
    return 4.0 * total / (side * bits)
