"""Pass/fail checks of the program's outputs against the references.

Each function returns True when the output is acceptable.  The
statistical check uses ``Z`` standard deviations of an upper bound on the
variance, so a correct program fails it with probability well below
``1e-8`` per call.
"""

from __future__ import annotations

import math
import re

import numpy as np

Z = 6.0


def error_count(errors, blocks, mean, var, ref_var=0.0, z=Z):
    """Bit-error count of ``blocks`` independent blocks against a reference.

    ``mean`` and ``var`` are the reference mean and (bound on the)
    variance of the errors in one block; ``ref_var`` is the variance of the
    reference ``mean`` itself when it was estimated from draws.
    """
    spread = math.sqrt(blocks * var + blocks * blocks * ref_var)
    return abs(errors - blocks * mean) <= z * spread


def relative(value, ref, rtol):
    """``value`` within ``rtol`` of ``ref``, relative to ``|ref|``."""
    return abs(value - ref) <= rtol * abs(ref)


def ber_curve(bers):
    """BERs of a sweep lie in [0, 0.5] and do not increase with Es/N0."""
    in_range = all(0.0 <= b <= 0.5 for b in bers)
    return in_range and all(b1 <= b0 for b0, b1 in zip(bers, bers[1:]))


def capacity_row(rates, bits, envelope, rho=1.0):
    """Each rate lies in [0, bits * rho] and the envelope is their maximum."""
    ok = all(0.0 <= r <= b * rho for r, b in zip(rates, bits))
    return ok and len(rates) == len(bits) and envelope == max(rates)


_LINE = re.compile(r"^(pass|FAIL)\s+(\S+)\s+K=(\d+)\s")
_SUMMARY = re.compile(r"^(\d+) checks, all passed$")


def verify_report(text, k_max):
    """``verify`` passed every check and round-tripped every K up to ``k_max``.

    Returns ``(name, ok)`` pairs: one for the report as a whole and one per
    block size ``K = 2, 4, ..., k_max``.
    """
    lines = text.strip().splitlines()
    checks = [_LINE.match(line) for line in lines[:-1]]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    whole = (
        bool(checks) and all(checks) and summary is not None
        and int(summary.group(1)) == len(checks)
        and all(m.group(1) == "pass" for m in checks)
    )
    round_trips = {int(m.group(3)) for m in checks if m and m.group(2).startswith("round-trip")}
    out = [("verify.report", whole)]
    k = 2
    while k <= k_max:
        out.append((f"verify.round-trip.K{k}", k in round_trips))
        k *= 2
    return out


def oracle(estimates, reference, rtol=1e-9):
    """Decoder estimates equal the least-squares solution to ``rtol``."""
    reference = np.asarray(reference)
    return np.linalg.norm(np.asarray(estimates) - reference) <= rtol * np.linalg.norm(reference)
