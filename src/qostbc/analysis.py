"""Exact average BER of linear STBCs over generalised fading, plus
hard-decision rate capacity.

The fading average is computed by the MGF method: the conditional AWGN
error probabilities are written as finite angular integrals with the SNR
appearing only inside an exponential, so averaging over independent
branches turns the integrand into a product of per-branch moment
generating functions.  A rate ``rho`` stretches the SNR argument and a
transmit diversity order ``eta`` exponentiates the product.  Every
family's MGF is a power ``base**-a`` of a base of at least 1, times
``exp(p / base - p)`` for Rice.  The branches of one family that share the
exponent ``a`` form a group, whose bases are multiplied and then take one
log per (SNR, node) rather than one per branch.

A :class:`BerParams` is the one description of code, antennas and
channel that the formulas take: the kernel forms each branch's mean SNR
``omega * 10^(Es/N0 / 10)`` from it.  The Nakagami approximation of a
Rice or Hoyt channel is not a mode of the kernel but a choice of
branches: ``BranchStat("nakagami", m, omega)`` at the same severities and
powers, as ``qostbc analyze --nakagami-approx`` maps them.

A BER is a weighted sum of angular integrals (:func:`_ber_terms`), and
all the integrals of one call are evaluated in one pass of
:func:`mgf_integral`, for the whole Es/N0 sweep at once: one BER curve, or
every modulation of a :func:`~qostbc.harness.capacity_sweep`.  The pass
uses one fixed rule: ``DEFAULT_POINTS`` Gauss-Legendre nodes on ``u`` in
[0, 1], mapped to ``theta = upper * u**3``.  The integrands are analytic
on the range, but their poles near ``theta = +-i sqrt(g * gamma_bar)``
come close to ``theta = 0`` at low SNR and high order (0.005 for 4096-QAM
on 16 shared-power branches at 0 dB), which slows plain Gauss-Legendre
down; the cubic grading moves them to ``|u|`` of about 0.15.  ``theta =
0``, where ``1/sin^2`` is infinite, is never a node.  The pass works on
(branch, SNR, integral x node) temporaries: the nodes of all the
integrals of a chunk form one long row per SNR point and branch, so the
element-wise passes run over long contiguous rows.

Integration ranges are *signed*, a property :func:`mgf_integral` offers
its callers: an upper limit ``pi*(1-delta)`` with ``delta > 1`` is negative
and contributes with a negative sign (the integrand is even).  The BER
formulas do not use it: :func:`_ber_terms` folds the PSK sector edges, so
every ``delta`` it gives is below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fading import BranchStat, m_to_hoyt_q, m_to_rice_k
from .modem import psk_distance_spectrum

__all__ = [
    "BerParams",
    "DEFAULT_POINTS",
    "mgf",
    "mgf_integral",
    "psk_ber",
    "qam_ber",
    "qam_bit_coefficients",
    "bit_error_rate",
    "capacity",
]

DEFAULT_POINTS = 96  # quadrature nodes per integral

# Largest number of elements of one (branch, SNR, integral x node)
# temporary.  A pass fills a chunk with integrals first and then with SNR
# points, so a chunk's rows are as long as its size allows, and works in
# two buffers it reuses, so the temporaries stay in cache and the memory of
# a long sweep or BER sum stays bounded.  Only a group of more than
# CHUNK_ELEMENTS / DEFAULT_POINTS branches exceeds it, with one
# integral and one SNR point per chunk.
CHUNK_ELEMENTS = 1 << 16


def _graded_rule(n: int):
    """Nodes ``t = u**3`` and weights for ``int_0^1 f(t) dt``."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    return u**3, 1.5 * u * u * w


_NODES, _WEIGHTS = _graded_rule(DEFAULT_POINTS)


@dataclass(frozen=True)
class BerParams:
    """Code / antenna / channel description for the BER formulas.

    ``branches`` lists one :class:`BranchStat` per transmit antenna; each
    branch statistic is replicated across the ``n_r`` receive antennas by
    raising its MGF to the power ``n_r * eta``.  Per-branch mean SNR at an
    operating point is ``omega * 10^(Es/N0 / 10)``.
    """

    n_t: int
    n_r: int
    branches: tuple
    rho: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if len(self.branches) != self.n_t:
            raise ValueError(f"need {self.n_t} branch statistics, got {len(self.branches)}")
        if not 0 < self.rho <= 1:
            raise ValueError("rate rho must lie in (0, 1]")
        if not 0 < self.eta <= 1:
            raise ValueError("diversity order eta must lie in (0, 1]")
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")


def _form(stat: BranchStat):
    """``(family, exponent, parameter, scale)`` of a branch's MGF.

    Rayleigh, and every branch with ``m = 1``, is Nakagami with ``m = 1``.
    The exponent is Nakagami's ``m``, 1/2 for Hoyt and 1 for Rice.  The
    parameter is Hoyt's ``(2q / (1 + q^2))^2`` or Rice's ``K``, and 0 for
    Nakagami; the scale multiplies ``-s * gamma_bar`` before the formula of
    :func:`_to_base` applies.
    """
    if stat.family == "nakagami":
        return "nakagami", stat.m, 0.0, 1.0 / stat.m
    if stat.family == "rayleigh" or stat.m == 1.0:
        return "nakagami", 1.0, 0.0, 1.0
    if stat.family == "hoyt":
        q = m_to_hoyt_q(stat.m)
        return "hoyt", 0.5, (2.0 * q / (1.0 + q * q)) ** 2, 1.0
    k = m_to_rice_k(stat.m)
    return "rice", 1.0, k, 1.0 / (1.0 + k)


def _to_base(family: str, p, y, tmp):
    """Overwrite ``y = -s * gamma_bar * scale >= 0`` with its family's base.

    A branch MGF is ``base**-exponent``, times ``exp(p / base - p)`` for
    Rice, and the base is at least 1.  Returns ``p / base`` for Rice,
    written to ``tmp``, a scratch array of ``y``'s shape, and 0 otherwise.
    Working in place keeps the kernel's temporaries in two buffers it
    reuses.
    """
    if family == "hoyt":  # 1 + y (2 + p y)
        np.multiply(p, y, out=tmp)
        tmp += 2.0
        y *= tmp
        y += 1.0
        return 0.0
    y += 1.0
    if family != "rice":
        return 0.0
    return np.divide(p, y, out=tmp)


def mgf(stat: BranchStat, gamma_bar: float, s):
    """MGF ``E[exp(s * gamma)]`` of one branch's SNR, from the integrals' kernel.

    ``s`` must be non-positive (the integrals only ever evaluate the MGF
    on the negative axis, where it exists for every family).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s > 0):
        raise ValueError("MGF is only evaluated for s <= 0")
    log_mgf = _log_product(np.array([[gamma_bar]], float), -s.ravel(),
                           _families((stat,)), np.empty((2, s.size)))
    return np.exp(log_mgf.reshape(s.shape))


@lru_cache(maxsize=32)
def _families(branches: tuple):
    """``(family, exponent, branch indexes, parameters, scales)`` per group.

    A group holds the branches of one family that share one exponent, so
    Nakagami branches of distinct ``m`` form one group each.  The
    parameters are shaped ``(n, 1, 1)`` against the (branch, SNR, integral
    x node) temporaries.  The cache serves repeated evaluations of the same
    branches, such as ``analytic_ber``'s one per sweep.  Its arrays are
    read-only.
    """
    groups = {}
    for i, stat in enumerate(branches):
        family, a, p, scale = _form(stat)
        groups.setdefault((family, a), []).append((i, p, scale))
    out = []
    for (family, a), members in groups.items():
        idx, p, scale = (np.array(col) for col in zip(*members))
        p = p.reshape(-1, 1, 1)
        for arr in (idx, p, scale):
            arr.flags.writeable = False
        out.append((family, a, idx, p, scale))
    return tuple(out)


def _log_product(x, s_abs, groups, scratch):
    """Log of the integrand's branch product before the power ``n_r * eta``.

    ``x`` holds the mean SNRs ``(n_snr, n_branches)`` of a chunk and
    ``s_abs`` the values ``-s`` at the nodes of its integrals, flat and
    integral-major; returns ``(n_snr, s_abs.size)``.  ``scratch`` is two
    flat buffers, each with room for the widest group's (branch, SNR,
    integral x node) temporary.
    """
    total = 0.0
    for family, a, idx, p, scale in groups:
        shape = (len(idx), len(x), s_abs.size)
        y, tmp = (buf[: math.prod(shape)].reshape(shape) for buf in scratch)
        # Every base is at least 1, so bases and products can only overflow
        # (to MGF 0).  An overflowed product takes one log per branch
        # instead: its integrand is below 1e-308 only where the power
        # a * n_r * eta is at least 1, and at 1/2 it can be 1e-154.  Hoyt's
        # base with p = 0 overflows through 0 * inf to NaN, which counts as inf.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply((x[:, idx] * scale).T[:, :, None], s_abs, out=y)
            rice = _to_base(family, p, y, tmp)
            log_prod = np.log(y.prod(axis=0))
        over = ~(log_prod < np.inf)
        if over.any():
            log_prod[over] = np.log(np.nan_to_num(y[:, over], nan=np.inf, posinf=np.inf)).sum(axis=0)
        total = total - a * log_prod
        if family == "rice":
            total = total + (rice.sum(axis=0) - p.sum())
    return total


def mgf_integral(delta, g, params: BerParams, esno_db):
    """Signed angular MGF integrals over a sweep of operating points.

    Evaluates ``(1/pi) * int_0^{pi(1-delta)} prod_b mgf_b(-g / (rho
    sin^2 t))^(n_r*eta) dt`` over the branches ``b`` of ``params``, each
    replicated across the ``n_r`` receive antennas, at the mean SNRs
    ``omega * 10^(Es/N0 / 10)`` of each point of the sweep ``esno_db``.
    ``delta`` and ``g`` are scalars or 1-D arrays, broadcast together; each
    pair is one integral, and all of them are evaluated in one pass.  The
    result has the pairs' shape followed by the sweep's: a float for one
    pair at one point, ``(n_snr,)`` for one pair over a 1-D sweep, and one
    row per pair for arrays.  Negative ranges (``delta > 1``) give the
    negative of the corresponding positive-range integral.  A point of
    infinite mean SNR has MGF 0, so it integrates to exactly 0.
    """
    delta, g = np.broadcast_arrays(np.asarray(delta, dtype=float), np.asarray(g, dtype=float))
    esno_db = np.asarray(esno_db, dtype=float)
    if delta.ndim > 1:
        raise ValueError("delta and g must be scalars or 1-D")
    if np.any(g <= 0):
        raise ValueError("g must be positive")
    # a mean SNR beyond the float range overflows to inf, whose MGF is 0
    with np.errstate(over="ignore"):
        sweep = 10.0 ** (esno_db.reshape(-1, 1) / 10.0) * [b.omega for b in params.branches]
    power = params.n_r * params.eta
    upper = np.pi * (1.0 - delta.ravel())
    out = np.zeros((upper.size, len(sweep)))
    ints = np.flatnonzero(upper != 0.0)
    if ints.size and len(sweep):
        # -s at each node of each integral
        s_abs = g.ravel()[ints, None] / (params.rho * np.sin(upper[ints, None] * _NODES) ** 2)
        groups = _families(params.branches)
        # a chunk is `step` integrals, filled first, by `rows` SNR points
        widest = max(len(idx) for _, _, idx, _, _ in groups)
        pairs = max(1, CHUNK_ELEMENTS // (widest * DEFAULT_POINTS))
        step = min(ints.size, pairs)
        rows = min(len(sweep), pairs // step)
        scratch = np.empty((2, widest * rows * step * DEFAULT_POINTS))
        for i in range(0, ints.size, step):
            nodes = s_abs[i:i + step].ravel()
            for r in range(0, len(sweep), rows):
                at = slice(r, r + rows)
                terms = np.exp(power * _log_product(sweep[at], nodes, groups, scratch))
                terms = terms.reshape(terms.shape[0], -1, DEFAULT_POINTS)
                # multiply and sum per integral: a matrix product may round
                # a row differently by where it lies in the chunk
                terms *= _WEIGHTS
                out[ints[i:i + step], at] = terms.sum(axis=-1).T
        out *= upper[:, None] / np.pi
    out = out.reshape(delta.shape + esno_db.shape)
    return float(out) if out.ndim == 0 else out


def _like(ber: np.ndarray, esno_db: np.ndarray):
    """``ber`` as a float for a scalar Es/N0, else in the sweep's shape."""
    return float(ber[0]) if esno_db.ndim == 0 else ber.reshape(esno_db.shape)


def qam_bit_coefficients(m: int, k: int) -> np.ndarray:
    """Signed weights of the Q-function terms for the k-th QAM bit."""
    side = int(round(np.sqrt(m)))
    i = np.arange(int((1.0 - 2.0**-k) * side))
    return (-1.0) ** (i * 2 ** (k - 1) // side) * (
        2 ** (k - 1) - np.floor(i * 2 ** (k - 1) / side + 0.5)
    )


@lru_cache(maxsize=32)
def _ber_terms(family: str, m: int):
    """``(delta, g, weight)``: the BER of Gray-mapped ``m``-PSK or square
    ``m``-QAM is ``weight @ mgf_integral(delta, g, ...)``.

    The three arrays have one entry per integral and are read-only.
    """
    b = int(np.log2(m))
    if family == "psk":
        if 2**b != m or m < 2:
            raise ValueError(f"M={m} is not a power of two >= 2")
        # Landing k sectors away, which costs s_k bits, is I(d_{k-1}) - I(d_k)
        # on the sector edges d_j = (2j + 1)/M.  Summed over k that telescopes
        # to the weights c_j = s_{j+1} - s_j with s_0 = s_M = 0, and since
        # d_{M-1-j} = 2 - d_j and I(2 - d) = -I(d), edge M-1-j folds onto edge j.
        c = np.diff(psk_distance_spectrum(m), prepend=0.0, append=0.0)
        weights = c[: m // 2] - c[::-1][: m // 2]
        j = np.flatnonzero(weights)
        delta = (2 * j + 1) / m
        terms = delta, np.sin(np.pi * delta) ** 2, weights[j] / (2.0 * b)
    else:
        side = int(round(np.sqrt(m)))
        if 2**b != m or side * side != m or b % 2:
            raise ValueError(f"M={m} is not a square power of two")
        # the term of index i has the same integral for every bit: weigh it once
        weights = np.zeros(side)
        for k in range(1, b // 2 + 1):
            d = qam_bit_coefficients(m, k)
            weights[: len(d)] += d
        i = np.flatnonzero(weights)
        g = 3.0 * (2 * i + 1) ** 2 / (2.0 * (m - 1))
        terms = np.full(i.size, 0.5), g, 4.0 * weights[i] / (side * b)
    for arr in terms:
        arr.flags.writeable = False
    return terms


def _bers(terms, params: BerParams, esno_db):
    """BER rows ``(n_snr,)`` of several modulations' :func:`_ber_terms`
    over the 1-D sweep ``esno_db``, from one :func:`mgf_integral` call.

    Each row is its weights times its integrals, summed along the integrals,
    so it is the same whatever other terms share the call.
    """
    delta, g = (np.concatenate([t[n] for t in terms]) for n in (0, 1))
    integrals = mgf_integral(delta, g, params, esno_db)
    ends = np.cumsum([len(w) for _, _, w in terms])
    return [(w[:, None] * integrals[end - len(w):end]).sum(axis=0)
            for (_, _, w), end in zip(terms, ends)]


def psk_ber(m: int, params: BerParams, esno_db):
    """Exact average bit error rate of Gray-mapped M-PSK.

    Parameters
    ----------
    m : int
        Constellation size (power of two).
    params : BerParams
    esno_db : float or array_like
        Constellation-energy-to-noise-power ratio in dB (scalar or sweep);
        all integrals are evaluated in one pass over the whole sweep.

    Returns
    -------
    float or np.ndarray
        A float for a scalar ``esno_db``, else an array of its shape.
        At ``Es/N0 = +inf`` the BER is exactly 0.
    """
    esno_db = np.asarray(esno_db, dtype=float)
    return _like(_bers([_ber_terms("psk", m)], params, esno_db.ravel())[0], esno_db)


def qam_ber(m: int, params: BerParams, esno_db):
    """Exact average bit error rate of Gray-mapped square M-QAM.

    Same conventions as :func:`psk_ber`; ``m`` must be a square power of
    two (4, 16, 64, ...).
    """
    esno_db = np.asarray(esno_db, dtype=float)
    return _like(_bers([_ber_terms("qam", m)], params, esno_db.ravel())[0], esno_db)


def bit_error_rate(mod, params: BerParams, esno_db):
    """:func:`psk_ber` or :func:`qam_ber` of a :class:`~qostbc.modem.Modulation`."""
    fn = psk_ber if mod.family == "psk" else qam_ber
    return fn(mod.order, params, esno_db)


def capacity(bits_per_symbol: int, rho: float, pbar: float) -> float:
    """Rate capacity of the hard-decision pipeline as a binary symmetric
    channel with crossover probability ``pbar``, in bits/sec/Hz."""
    if not 0.0 <= pbar <= 0.5:
        raise ValueError("pbar must lie in [0, 0.5]")
    if pbar == 0.0:
        entropy = 0.0
    elif pbar == 0.5:
        return 0.0
    else:
        entropy = -(pbar * np.log2(pbar) + (1.0 - pbar) * np.log2(1.0 - pbar))
    return rho * bits_per_symbol * (1.0 - entropy)

