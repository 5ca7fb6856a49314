"""Exact average BER of linear STBCs over generalised fading, plus
hard-decision rate capacity and the uniform order-statistic mean.

The fading average is computed by the MGF method: the conditional AWGN
error probabilities are written as finite angular integrals with the SNR
appearing only inside an exponential, so averaging over independent
branches turns the integrand into a product of per-branch moment
generating functions.  A rate ``rho`` stretches the SNR argument and a
transmit diversity order ``eta`` exponentiates the product.  Integrals are
evaluated with a uniform trapezoid rule on ``points`` samples starting at
``theta = 1e-50`` (the integrand is smooth there; the offset merely avoids
evaluating ``1/sin^2`` at exactly zero).

Integration ranges are *signed*: an upper limit ``pi*(1-delta)`` with
``delta > 1`` is negative and contributes with a negative sign (the
integrand is even), which is what makes the sector-probability telescoping
correct for every ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .fading import BranchStat, m_to_hoyt_q, m_to_rice_k

__all__ = [
    "BerParams",
    "QuadratureConfig",
    "DEFAULT_POINTS",
    "mgf",
    "mgf_integral",
    "psk_ber",
    "qam_ber",
    "qam_bit_coefficients",
    "capacity",
    "order_stat_mean",
]

DEFAULT_POINTS = 5000


@dataclass(frozen=True)
class QuadratureConfig:
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.points < 100:
            raise ValueError("need at least 100 quadrature points")


@dataclass(frozen=True)
class BerParams:
    """Code / antenna / channel description for the BER formulas.

    ``branches`` lists one :class:`BranchStat` per transmit antenna; each
    branch statistic is replicated across the ``n_r`` receive antennas by
    raising its MGF to the power ``n_r * eta``.  Per-branch mean SNR at an
    operating point is ``omega / N0``.
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


def mgf(stat: BranchStat, gamma_bar: float, s, nakagami_approx: bool = False):
    """MGF ``E[exp(s * gamma)]`` of the instantaneous branch SNR.

    ``s`` must be non-positive (the integrals only ever evaluate the MGF
    on the negative axis, where it exists for every family).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s > 0):
        raise ValueError("MGF is only evaluated for s <= 0")
    m = stat.m
    if nakagami_approx or stat.family == "nakagami":
        return (1.0 - s * gamma_bar / m) ** (-m)
    if stat.family == "rayleigh" or m == 1.0:
        return 1.0 / (1.0 - s * gamma_bar)
    if stat.family == "hoyt":
        q = m_to_hoyt_q(m)
        return 1.0 / np.sqrt(
            1.0 - 2.0 * s * gamma_bar + (2.0 * s * gamma_bar * q) ** 2 / (1.0 + q * q) ** 2
        )
    # rice
    kf = m_to_rice_k(m)
    return ((1.0 + kf) / (1.0 + kf - s * gamma_bar)) * np.exp(
        kf * s * gamma_bar / (1.0 + kf - s * gamma_bar)
    )


def mgf_integral(
    delta: float,
    g: float,
    n_total: int,
    rho: float,
    eta: float,
    branches,
    gamma_bars,
    points: int = DEFAULT_POINTS,
    nakagami_approx: bool = False,
) -> float:
    """Signed angular MGF integral.

    Evaluates ``(1/pi) * int_0^{pi(1-delta)} prod_a mgf_a(-g / (rho
    sin^2 t))^(r*eta) dt`` where ``r = n_total / len(branches)`` replicates
    each transmit branch across the receive antennas.  Negative ranges
    (``delta > 1``) give the negative of the corresponding positive-range
    integral.
    """
    branches = tuple(branches)
    gamma_bars = np.asarray(gamma_bars, dtype=float)
    if n_total % len(branches):
        raise ValueError("branch count must divide the total branch number")
    if g <= 0:
        raise ValueError("g must be positive")
    power = (n_total // len(branches)) * eta
    upper = np.pi * (1.0 - delta)
    if upper == 0.0:
        return 0.0
    theta = np.linspace(1e-50, upper, points)
    s = -g / (rho * np.sin(theta) ** 2)
    prod = np.ones_like(theta)
    for stat, gb in zip(branches, gamma_bars):
        prod = prod * mgf(stat, gb, s, nakagami_approx) ** power
    return float(np.trapezoid(prod, theta) / np.pi)


def _gamma_bars(params: BerParams, esno_db: float) -> np.ndarray:
    n0 = 10.0 ** (-esno_db / 10.0)
    return np.array([b.omega for b in params.branches]) / n0


def psk_ber(m: int, params: BerParams, esno_db, points: int = DEFAULT_POINTS):
    """Exact average bit error rate of Gray-mapped M-PSK.

    Parameters
    ----------
    m : int
        Constellation size (power of two).
    params : BerParams
    esno_db : float or array_like
        Constellation-energy-to-noise-power ratio in dB (scalar or sweep).
    points : int
        Trapezoid sample count per integral.

    Returns
    -------
    float or np.ndarray
    """
    from .modem import psk_distance_spectrum

    esno_db = np.asarray(esno_db, dtype=float)
    if esno_db.ndim:
        return np.array([psk_ber(m, params, e, points) for e in esno_db])
    b = int(np.log2(m))
    if 2**b != m or m < 2:
        raise ValueError(f"M={m} is not a power of two >= 2")
    spectrum = psk_distance_spectrum(m)
    gbars = _gamma_bars(params, float(esno_db))
    n_total = params.n_t * params.n_r
    total = 0.0
    for k in range(1, m):
        d_lo = (2 * k - 1) / m
        d_hi = (2 * k + 1) / m
        total += spectrum[k - 1] * (
            mgf_integral(
                d_lo, np.sin(np.pi * d_lo) ** 2, n_total, params.rho, params.eta,
                params.branches, gbars, points, params.nakagami_approx,
            )
            - mgf_integral(
                d_hi, np.sin(np.pi * d_hi) ** 2, n_total, params.rho, params.eta,
                params.branches, gbars, points, params.nakagami_approx,
            )
        )
    return total / (2.0 * b)


def qam_bit_coefficients(m: int, k: int) -> np.ndarray:
    """Signed weights of the Q-function terms for the k-th QAM bit."""
    side = int(round(np.sqrt(m)))
    i = np.arange(int((1.0 - 2.0**-k) * side))
    return (-1.0) ** (i * 2 ** (k - 1) // side) * (
        2 ** (k - 1) - np.floor(i * 2 ** (k - 1) / side + 0.5)
    )


def qam_ber(m: int, params: BerParams, esno_db, points: int = DEFAULT_POINTS):
    """Exact average bit error rate of Gray-mapped square M-QAM.

    Same conventions as :func:`psk_ber`; ``m`` must be a square power of
    two (4, 16, 64, ...).
    """
    esno_db = np.asarray(esno_db, dtype=float)
    if esno_db.ndim:
        return np.array([qam_ber(m, params, e, points) for e in esno_db])
    b = int(np.log2(m))
    side = int(round(np.sqrt(m)))
    if 2**b != m or side * side != m or b % 2:
        raise ValueError(f"M={m} is not a square power of two")
    gbars = _gamma_bars(params, float(esno_db))
    n_total = params.n_t * params.n_r
    total = 0.0
    for k in range(1, b // 2 + 1):
        coeff = qam_bit_coefficients(m, k)
        for i, d in enumerate(coeff):
            g = 3.0 * (2 * i + 1) ** 2 / (2.0 * (m - 1))
            total += d * mgf_integral(
                0.5, g, n_total, params.rho, params.eta,
                params.branches, gbars, points, params.nakagami_approx,
            )
    return 4.0 * total / (side * b)


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


def order_stat_mean(k: int, n: int, pmax: float = 1.0) -> float:
    """Mean of the k-th smallest of ``n`` i.i.d. uniforms on [0, pmax].

    The underlying Beta integral has the closed form
    ``(n-k)! k! / (n+1)!``, which combined with the binomial prefactor
    collapses to ``k / (n+1) * pmax``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    prefactor = factorial(n) // (factorial(k - 1) * factorial(n - k))
    integral = factorial(n - k) * factorial(k) / factorial(n + 1)
    return prefactor * integral * pmax
