"""Per-branch fading gain generators and power/severity profiles.

Every branch is described by a family name, a severity ``m`` and a mean
power ``omega = E[|h|^2]``.  In the physically binding mode the severity
selects the family: ``m < 1`` maps to Hoyt, ``m = 1`` to Rayleigh and
``m > 1`` to Rice; Nakagami is available as an envelope approximation for
any ``m >= 0.5``.  One gain is drawn per branch per codeword and held for
the whole block (memoryless block fading).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

__all__ = [
    "BranchStat",
    "severity_family",
    "m_to_hoyt_q",
    "m_to_rice_k",
    "sample_gain",
    "sample_gains",
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
    # how the branch is drawn, worked out once (see _generator_form)
    _form: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_form", _generator_form(self))


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


def _generator_form(stat: BranchStat):
    """How the branch is drawn, with its constants.

    - ``("normal", los, scale)``: gains ``los + scale (x + i y)`` with ``x,
      y`` standard normal.  Rayleigh, and Rice and Hoyt at ``m = 1``, have
      ``los = 0``; Rice has a line-of-sight component of power
      ``omega*k/(1+k)``.  Only :func:`sample_gains` draws this form.
    - ``("hoyt", s_i, s_q)``: gains ``(s_i x + i s_q y) exp(2 pi i u)``
      with ``u`` uniform, ``s_q / s_i = q``.
    - ``("nakagami", m, omega / m)``: gains ``sqrt(omega / m G) exp(2 pi i
      u)`` with ``G`` standard gamma of shape ``m``.

    :class:`BranchStat` works this out once, when it is built.
    """
    omega = stat.omega
    if stat.family == "rayleigh" or (stat.family in ("rice", "hoyt") and stat.m == 1.0):
        return "normal", 0.0, np.sqrt(omega / 2.0)
    if stat.family == "rice":
        kf = m_to_rice_k(stat.m)
        return "normal", np.sqrt(omega * kf / (1.0 + kf)), np.sqrt(omega / (2.0 * (1.0 + kf)))
    if stat.family == "hoyt":
        q = m_to_hoyt_q(stat.m)
        s_i = np.sqrt(omega / (1.0 + q * q))
        return "hoyt", s_i, q * s_i
    return "nakagami", stat.m, omega / stat.m


def _shape(size):
    return () if size is None else ((size,) if np.ndim(size) == 0 else tuple(size))


def sample_gain(stat: BranchStat, rng: np.random.Generator, size=None):
    """Draw complex gains with ``E[|h|^2] = omega`` for one branch.

    Rayleigh and Rice, with its line-of-sight component, are the one-branch
    case of :func:`sample_gains`.  Hoyt draws the real/imaginary parts with
    unequal variances (ratio ``q``) and applies a uniform random rotation
    so the aggregate is circular.  Nakagami draws the power from a Gamma
    distribution and a uniform phase.
    """
    kind, c1, c2 = stat._form
    if kind == "normal":
        out = sample_gains((stat,), rng, size)[..., 0]
        return out[()] if size is None else out
    shape = _shape(size)
    out = np.empty(shape, complex)
    # the draws in stream order: two normal planes or a gamma power, then
    # the phase
    if kind == "nakagami":
        # envelope approximation, phase chosen uniform (any phase convention
        # leaves |h|^2 statistics unchanged); rng.gamma(m, omega / m) is this
        # draw times omega / m
        power = rng.standard_gamma(c1, shape)
        power *= c2
        np.sqrt(power, out=power)
    else:
        draws = rng.standard_normal((2,) + shape)
        np.multiply(draws[0], c1, out=out.real)
        np.multiply(draws[1], c2, out=out.imag)
    # the phase exp(2 pi i u), cos and sin written apart
    theta = rng.random(shape)
    theta *= 2.0 * np.pi
    if kind == "nakagami":
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        out.real *= power
        out.imag *= power
    else:
        # the Hoyt rotation stays a complex product: a real-arithmetic form
        # rounds differently
        phasors = np.empty(shape, complex)
        np.cos(theta, out=phasors.real)
        np.sin(theta, out=phasors.imag)
        np.multiply(out, phasors, out=out)
    return out[()] if size is None else out


def sample_gains(stats, rng: np.random.Generator, size):
    """Gains of every branch in ``stats``, shape ``size + (len(stats),)``.

    Consumes ``rng`` exactly as :func:`sample_gain` called branch by branch
    would, and returns the same values.  A run of neighbouring branches
    whose gains are affine in two normal draws (Rayleigh and Rice) is drawn
    with one call, since ``standard_normal((run, 2) + size)`` yields the
    draws of the run's branches in that order.
    """
    size = _shape(size)
    out = np.empty(size + (len(stats),), complex)
    a = 0
    for normal, run in groupby(stats, key=lambda s: s._form[0] == "normal"):
        run = list(run)
        b = a + len(run)
        if normal:
            z = rng.standard_normal((b - a, 2) + size)
            # los + scale z per branch, one pass per run of equal constants
            i = 0
            for (los, scale), same in groupby(s._form[1:] for s in run):
                n = len(list(same))
                z[i : i + n] *= scale
                if los:
                    z[i : i + n, 0] += los
                i += n
            # (run, 2) + size  ->  (2,) + size + (run,)
            z = np.moveaxis(z, (0, 1), (-1, 0))
            np.copyto(out[..., a:b].real, z[0])
            np.copyto(out[..., a:b].imag, z[1])
        else:
            for j, stat in enumerate(run, a):
                out[..., j] = sample_gain(stat, rng, size)
        a = b
    return out


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
    """Add complex Gaussian noise of variance ``n0`` per sample.

    Both noise planes, real then imaginary, are one ``standard_normal``
    draw.  The result is a new array, or ``signal`` itself at ``n0 = 0``;
    ``signal`` is never written.
    """
    signal = np.asarray(signal, dtype=complex)
    if n0 < 0:
        raise ValueError("noise power must be non-negative")
    if n0 == 0:
        return signal
    noise = rng.standard_normal((2,) + signal.shape)
    noise *= np.sqrt(n0 / 2.0)
    out = np.empty(signal.shape, complex)
    np.add(signal.real, noise[0], out=out.real)
    np.add(signal.imag, noise[1], out=out.imag)
    return out


def parse_channel_spec(spec: str):
    """Parse CLI channel names like ``rayleigh``, ``rice:m=2``, ``mixed``."""
    name, _, arg = spec.strip().lower().partition(":")
    if name == "mixed":
        if arg:
            raise ValueError(f"channel model 'mixed' takes no parameter, got {spec!r}")
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
        if arg:
            raise ValueError(f"power profile 'equipower' takes no parameter, got {spec!r}")
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
