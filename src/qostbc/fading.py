"""Per-branch fading gain generators and power/severity profiles.

Every branch is described by a family name, a severity ``m`` and a mean
power ``omega = E[|h|^2]``.  In the physically binding mode the severity
selects the family: ``m < 1`` maps to Hoyt, ``m = 1`` to Rayleigh and
``m > 1`` to Rice; Nakagami is available as an envelope approximation for
any ``m >= 0.5``.  One gain is drawn per branch per codeword and held for
the whole block (memoryless block fading).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BranchStat",
    "severity_family",
    "m_to_hoyt_q",
    "m_to_rice_k",
    "sample_gain",
    "linear_profile",
    "severity_profile",
    "add_awgn",
    "parse_channel_spec",
    "parse_profile_spec",
]

FAMILIES = ("rayleigh", "rice", "hoyt", "nakagami")


@dataclass(frozen=True)
class BranchStat:
    """Fading descriptor of one diversity branch."""

    family: str
    m: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown fading family {self.family!r}")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0.5 <= self.m < np.inf:
            raise ValueError(f"severity m must be finite and >= 0.5, got {self.m}")
        if self.family == "rayleigh" and self.m != 1.0:
            raise ValueError("Rayleigh is the m=1 point")
        if self.family == "rice" and self.m < 1.0:
            raise ValueError("Rice needs m >= 1")
        if self.family == "hoyt" and self.m > 1.0:
            raise ValueError("Hoyt needs m <= 1")


def severity_family(m: float) -> str:
    """The family severity ``m`` selects in the binding mode: Hoyt, Rayleigh or Rice."""
    return "hoyt" if m < 1 else ("rayleigh" if m == 1 else "rice")


def m_to_hoyt_q(m: float) -> float:
    """Hoyt axial ratio ``q`` for severity ``0.5 <= m <= 1`` (q=1 at m=1)."""
    if not 0.5 <= m <= 1.0:
        raise ValueError("Hoyt branch needs 0.5 <= m <= 1")
    if m == 0.5:
        return 0.0
    return float(np.sqrt((1.0 - 2.0 * np.sqrt(m - m * m)) / (2.0 * m - 1.0)))


def m_to_rice_k(m: float) -> float:
    """Rice factor ``k`` for severity ``m >= 1`` (k=0 at m=1)."""
    if m < 1.0:
        raise ValueError("Rice branch needs m >= 1")
    if m == 1.0:
        return 0.0
    root = np.sqrt(m * m - m)
    return float(root / (m - root))


def sample_gain(stat: BranchStat, rng: np.random.Generator, size=None):
    """Draw complex gains with ``E[|h|^2] = omega`` for one branch.

    Rayleigh is circularly symmetric Gaussian.  Rice adds a deterministic
    line-of-sight component of power ``omega*k/(1+k)``.  Hoyt draws the
    real/imaginary parts with unequal variances (ratio ``q``) and applies
    a uniform random rotation so the aggregate is circular.  Nakagami
    draws the power from a Gamma distribution and a uniform phase.
    """
    omega = stat.omega
    if stat.family == "rayleigh" or (stat.family in ("rice", "hoyt") and stat.m == 1.0):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return np.sqrt(omega / 2.0) * z
    if stat.family == "rice":
        kf = m_to_rice_k(stat.m)
        los = np.sqrt(omega * kf / (1.0 + kf))
        diff = np.sqrt(omega / (2.0 * (1.0 + kf)))
        return los + diff * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    if stat.family == "hoyt":
        q = m_to_hoyt_q(stat.m)
        s_i = np.sqrt(omega / (1.0 + q * q))
        s_q = q * s_i
        z = s_i * rng.standard_normal(size) + 1j * s_q * rng.standard_normal(size)
        return z * np.exp(2j * np.pi * rng.random(size))
    # nakagami: envelope approximation, phase chosen uniform (any phase
    # convention leaves |h|^2 statistics unchanged)
    power = rng.gamma(stat.m, omega / stat.m, size)
    return np.sqrt(power) * np.exp(2j * np.pi * rng.random(size))


def linear_profile(k: int, mean_power: float = 1.0) -> np.ndarray:
    """Mean powers ``2 j / (K+1) * mean_power`` for ``j = 1..K``.

    This is the expected ascending ordering of K i.i.d. uniform branch
    powers, normalised so the average over branches is ``mean_power``.
    """
    if k < 1:
        raise ValueError("need at least one branch")
    return 2.0 * np.arange(1, k + 1) / (k + 1) * mean_power


def severity_profile(k: int) -> np.ndarray:
    """Severities spanning [0.5, 4] uniformly across ``k >= 2`` branches."""
    if k < 2:
        raise ValueError("need at least two branches")
    return 0.5 + 3.5 * np.arange(k) / (k - 1)


def add_awgn(signal, n0: float, rng: np.random.Generator) -> np.ndarray:
    """Add complex Gaussian noise of variance ``n0`` per sample."""
    signal = np.asarray(signal, dtype=complex)
    if n0 < 0:
        raise ValueError("noise power must be non-negative")
    if n0 == 0:
        return signal
    noise = rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape)
    return signal + np.sqrt(n0 / 2.0) * noise


def parse_channel_spec(spec: str):
    """Parse CLI channel names like ``rayleigh``, ``rice:m=2``, ``mixed``."""
    name, _, arg = spec.strip().lower().partition(":")
    if name == "mixed":
        return ("mixed", None)
    if name not in FAMILIES:
        raise ValueError(f"unknown channel model {spec!r}")
    m = 1.0
    if arg:
        key, _, val = arg.partition("=")
        if key != "m":
            raise ValueError(f"unknown channel parameter {key!r}")
        m = float(val)
    return (name, m)


def parse_profile_spec(spec: str):
    """Parse CLI power profiles: ``equipower`` or ``linear:pmax=2``."""
    name, _, arg = spec.strip().lower().partition(":")
    if name == "equipower":
        return ("equipower", None)
    if name != "linear":
        raise ValueError(f"unknown power profile {spec!r}")
    pmax = 2.0
    if arg:
        key, _, val = arg.partition("=")
        if key != "pmax":
            raise ValueError(f"unknown profile parameter {key!r}")
        pmax = float(val)
    return ("linear", pmax)
