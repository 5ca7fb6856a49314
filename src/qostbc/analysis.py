"""Exact average BER of linear STBCs over generalised fading, plus
hard-decision rate capacity.

The fading average is computed by the MGF method: the conditional AWGN
error probabilities are written as finite angular integrals with the SNR
appearing only inside an exponential, so averaging over independent
branches turns the integrand into a product of per-branch moment
generating functions.  A rate ``rho`` stretches the SNR argument and a
transmit diversity order ``eta`` exponentiates the product.  The product
is formed as a sum of log-MGFs, with one vectorised evaluation per fading
family.

Each integral is evaluated for a whole Es/N0 sweep at once, on one fixed
rule: ``DEFAULT_POINTS`` Gauss-Legendre nodes on ``u`` in [0, 1], mapped
to ``theta = upper * u**3``.  The integrands are analytic on the range,
but their poles near ``theta = +-i sqrt(g * gamma_bar)`` come close to
``theta = 0`` at low SNR and high order (0.005 for 4096-QAM on 16
shared-power branches at 0 dB), which slows plain Gauss-Legendre down;
the cubic grading moves them to ``|u|`` of about 0.15.  ``theta = 0``,
where ``1/sin^2`` is infinite, is never a node.

Integration ranges are *signed*: an upper limit ``pi*(1-delta)`` with
``delta > 1`` is negative and contributes with a negative sign (the
integrand is even), which is what makes the sector-probability telescoping
correct for every ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fading import BranchStat, m_to_hoyt_q, m_to_rice_k

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

# Largest number of elements of one (SNR, branch, node) temporary; longer
# sweeps are integrated in chunks of SNR points.
CHUNK_ELEMENTS = 1 << 19


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
    nakagami_approx: bool = False

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


def _form(stat: BranchStat, nakagami_approx: bool):
    """``(formula, parameter, scale)`` of a branch's log-MGF.

    Rayleigh, and every branch with ``m = 1``, is Nakagami with ``m = 1``.
    The parameter is Nakagami's ``m``, Hoyt's ``(2q / (1 + q^2))^2`` or
    Rice's ``K``; the scale multiplies ``-s * gamma_bar`` before the
    formula applies.
    """
    if nakagami_approx or stat.family == "nakagami":
        return "nakagami", stat.m, 1.0 / stat.m
    if stat.family == "rayleigh" or stat.m == 1.0:
        return "nakagami", 1.0, 1.0
    if stat.family == "hoyt":
        q = m_to_hoyt_q(stat.m)
        return "hoyt", (2.0 * q / (1.0 + q * q)) ** 2, 1.0
    k = m_to_rice_k(stat.m)
    return "rice", k, 1.0 / (1.0 + k)


def _log_mgf(family: str, p, y):
    """Log-MGF of one family at ``y = -s * gamma_bar * scale >= 0``."""
    if family == "nakagami":
        return -p * np.log1p(y)
    if family == "hoyt":
        return -0.5 * np.log1p(y * (2.0 + p * y))
    return p / (1.0 + y) - np.log1p(y) - p


def mgf(stat: BranchStat, gamma_bar: float, s, nakagami_approx: bool = False):
    """MGF ``E[exp(s * gamma)]`` of the instantaneous branch SNR.

    ``s`` must be non-positive (the integrals only ever evaluate the MGF
    on the negative axis, where it exists for every family).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s > 0):
        raise ValueError("MGF is only evaluated for s <= 0")
    family, p, scale = _form(stat, nakagami_approx)
    return np.exp(_log_mgf(family, p, -s * gamma_bar * scale))


@lru_cache(maxsize=32)
def _families(branches: tuple, nakagami_approx: bool):
    """``(family, branch indexes, parameters, scales)`` per family.

    A BER evaluation integrates hundreds of times over the same branches,
    so the grouping is cached; its arrays are read-only.
    """
    groups = {}
    for i, stat in enumerate(branches):
        family, p, scale = _form(stat, nakagami_approx)
        groups.setdefault(family, []).append((i, p, scale))
    out = []
    for family, members in groups.items():
        idx, p, scale = (np.array(col) for col in zip(*members))
        p = p[:, None]
        for a in (idx, p, scale):
            a.flags.writeable = False
        out.append((family, idx, p, scale))
    return tuple(out)


def mgf_integral(
    delta: float,
    g: float,
    n_total: int,
    rho: float,
    eta: float,
    branches,
    gamma_bars,
    nakagami_approx: bool = False,
):
    """Signed angular MGF integral over a sweep of operating points.

    Evaluates ``(1/pi) * int_0^{pi(1-delta)} prod_a mgf_a(-g / (rho
    sin^2 t))^(r*eta) dt`` where ``r = n_total / len(branches)`` replicates
    each transmit branch across the receive antennas.  ``gamma_bars`` holds
    the mean SNR of each branch: shape ``(n_branches,)`` for one operating
    point, which returns a float, or ``(n_snr, n_branches)`` for a sweep,
    which returns shape ``(n_snr,)``.  Negative ranges (``delta > 1``)
    give the negative of the corresponding positive-range integral.  A
    branch of infinite mean SNR has MGF 0, so its operating point
    integrates to exactly 0.
    """
    branches = tuple(branches)
    gamma_bars = np.asarray(gamma_bars, dtype=float)
    if n_total % len(branches):
        raise ValueError("branch count must divide the total branch number")
    if g <= 0:
        raise ValueError("g must be positive")
    if gamma_bars.ndim not in (1, 2) or gamma_bars.shape[-1] != len(branches):
        raise ValueError(f"need {len(branches)} mean SNRs per operating point")
    sweep = gamma_bars.reshape(-1, len(branches))
    power = (n_total // len(branches)) * eta
    upper = np.pi * (1.0 - delta)
    out = np.zeros(len(sweep))
    live = np.flatnonzero(~np.isposinf(sweep).any(axis=1))
    if upper != 0.0 and live.size:
        s_abs = g / (rho * np.sin(upper * _NODES) ** 2)  # -s at each node
        groups = _families(branches, nakagami_approx)
        rows = max(1, CHUNK_ELEMENTS // (len(branches) * DEFAULT_POINTS))
        for start in range(0, live.size, rows):
            at = live[start:start + rows]
            chunk = sweep[at]
            log_prod = sum(
                _log_mgf(family, p, (chunk[:, idx] * scale)[:, :, None] * s_abs).sum(axis=1)
                for family, idx, p, scale in groups
            )
            out[at] = np.exp(power * log_prod) @ _WEIGHTS
        out *= upper / np.pi
    return float(out[0]) if gamma_bars.ndim == 1 else out


def _gamma_bars(params: BerParams, esno_db: np.ndarray) -> np.ndarray:
    """Mean branch SNRs ``omega * 10^(Es/N0 / 10)``, shape ``(n_snr, n_t)``."""
    omega = np.array([b.omega for b in params.branches])
    return 10.0 ** (esno_db.reshape(-1, 1) / 10.0) * omega


def _integrator(params: BerParams, esno_db: np.ndarray):
    """``(delta, g) -> mgf_integral(...)`` over the sweep ``esno_db``."""
    gbars = _gamma_bars(params, esno_db)
    n_total = params.n_t * params.n_r

    def integral(delta, g):
        return mgf_integral(
            delta, g, n_total, params.rho, params.eta,
            params.branches, gbars, params.nakagami_approx,
        )

    return integral


def _like(ber: np.ndarray, esno_db: np.ndarray):
    """``ber`` as a float for a scalar Es/N0, else in the sweep's shape."""
    return float(ber[0]) if esno_db.ndim == 0 else ber.reshape(esno_db.shape)


def psk_ber(m: int, params: BerParams, esno_db):
    """Exact average bit error rate of Gray-mapped M-PSK.

    Parameters
    ----------
    m : int
        Constellation size (power of two).
    params : BerParams
    esno_db : float or array_like
        Constellation-energy-to-noise-power ratio in dB (scalar or sweep);
        each integral is evaluated once for the whole sweep.

    Returns
    -------
    float or np.ndarray
        A float for a scalar ``esno_db``, else an array of its shape.
        At ``Es/N0 = +inf`` the BER is exactly 0.
    """
    from .modem import psk_distance_spectrum

    b = int(np.log2(m))
    if 2**b != m or m < 2:
        raise ValueError(f"M={m} is not a power of two >= 2")
    spectrum = psk_distance_spectrum(m)
    esno_db = np.asarray(esno_db, dtype=float)
    integral = _integrator(params, esno_db)
    total = 0.0
    for k in range(1, m):
        d_lo = (2 * k - 1) / m
        d_hi = (2 * k + 1) / m
        total = total + spectrum[k - 1] * (
            integral(d_lo, np.sin(np.pi * d_lo) ** 2) - integral(d_hi, np.sin(np.pi * d_hi) ** 2)
        )
    return _like(total / (2.0 * b), esno_db)


def qam_bit_coefficients(m: int, k: int) -> np.ndarray:
    """Signed weights of the Q-function terms for the k-th QAM bit."""
    side = int(round(np.sqrt(m)))
    i = np.arange(int((1.0 - 2.0**-k) * side))
    return (-1.0) ** (i * 2 ** (k - 1) // side) * (
        2 ** (k - 1) - np.floor(i * 2 ** (k - 1) / side + 0.5)
    )


def qam_ber(m: int, params: BerParams, esno_db):
    """Exact average bit error rate of Gray-mapped square M-QAM.

    Same conventions as :func:`psk_ber`; ``m`` must be a square power of
    two (4, 16, 64, ...).
    """
    b = int(np.log2(m))
    side = int(round(np.sqrt(m)))
    if 2**b != m or side * side != m or b % 2:
        raise ValueError(f"M={m} is not a square power of two")
    # the term of index i has the same integral for every bit: weigh it once
    weights = np.zeros(side)
    for k in range(1, b // 2 + 1):
        d = qam_bit_coefficients(m, k)
        weights[: len(d)] += d
    esno_db = np.asarray(esno_db, dtype=float)
    integral = _integrator(params, esno_db)
    total = 0.0
    for i in np.flatnonzero(weights):
        g = 3.0 * (2 * i + 1) ** 2 / (2.0 * (m - 1))
        total = total + weights[i] * integral(0.5, g)
    return _like(4.0 * total / (side * b), esno_db)


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

