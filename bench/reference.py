"""References for the benchmark, computed apart from the program.

Only :func:`qostbc.codes.encode` (with ``build_mother``/``puncture``, which
name the code) is taken from the package: it defines the transmitted
signal, so a model of the received block has to start from it.  Everything
else uses numpy and scipy alone:

* :func:`lstsq_decode` -- a least-squares (zero-forcing) oracle that builds
  the real ``2K n_r x 2K`` model of the received block from ``encode`` of
  unit symbol vectors and solves it with ``numpy.linalg.lstsq``.
* :func:`zf_qpsk_stats` -- a semi-analytic BER of that zero-forcing
  detector for QPSK.  It draws its own channels, forms the per-symbol 2x2
  noise covariance ``(N0/2)(A^T A)^-1`` and averages ``Q()`` over the
  draws, with the ``1/sqrt(n_t)`` transmit scaling of the simulator.  It
  also returns the block-level variance the statistical checks need.
* :func:`psk_ber` / :func:`qam_ber` -- exact fading-averaged BER of
  Gray-mapped PSK and square QAM with linear combining, from Craig's
  integrals evaluated by ``scipy.integrate.quad`` over MGFs written here.

Run ``python3 bench/reference.py`` to remake ``reference_k128.json``, the
only reference value that is stored rather than computed during a run
(it takes about a minute).
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special

HERE = os.path.dirname(os.path.abspath(__file__))
K128_FILE = os.path.join(HERE, "reference_k128.json")

# The stored ZF reference: the sim-k128 workload's channel and sweep.
K128_SPEC = {"k": 128, "n_t": 96, "n_r": 1, "esno_db": [0.0, 5.0, 10.0],
             "draws": 6000, "seed": 20051003}


def _codes():
    from qostbc.codes import build_mother, encode, puncture

    return build_mother, encode, puncture


# ---------------------------------------------------------------------------
# least-squares oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_responses(k: int, n_t: int) -> np.ndarray:
    """``encode`` of ``e_j`` and ``1j e_j``: shape ``(2K, K, n_t)``."""
    build_mother, encode, puncture = _codes()
    structure = puncture(build_mother(k), n_t)
    eye = np.eye(k, dtype=complex)
    return np.concatenate([encode(structure, eye), encode(structure, 1j * eye)])


def model_matrix(gains, k: int) -> np.ndarray:
    """Real model ``A`` with ``[Re r; Im r] = A [Re s; Im s]``.

    ``gains`` has shape ``(B, n_r, n_t)``; the result is
    ``(B, 2 K n_r, 2K)``, rows ordered (real/imag, epoch, antenna).
    """
    gains = np.asarray(gains, dtype=complex)
    basis = _unit_responses(k, gains.shape[-1])
    rx = np.einsum("cka,bra->bckr", basis, gains)  # (B, 2K, K, n_r)
    cols = rx.reshape(rx.shape[0], 2 * k, -1)
    return np.concatenate([cols.real, cols.imag], axis=2).transpose(0, 2, 1)


def lstsq_decode(received, gains, k: int) -> np.ndarray:
    """Least-squares symbol estimates for ``(B, K, n_r)`` received blocks."""
    received = np.asarray(received, dtype=complex)
    a = model_matrix(gains, k)
    out = np.empty((received.shape[0], k), dtype=complex)
    for b in range(received.shape[0]):
        y = np.concatenate([received[b].real.ravel(), received[b].imag.ravel()])
        x = np.linalg.lstsq(a[b], y, rcond=None)[0]
        out[b] = x[:k] + 1j * x[k:]
    return out


# ---------------------------------------------------------------------------
# semi-analytic zero-forcing BER (QPSK)
# ---------------------------------------------------------------------------

def _q(x):
    return 0.5 * special.erfc(x / math.sqrt(2.0))


def zf_decisions(gains, k):
    """Noise of the 2K QPSK decision variables after ZF, per unit ``N0/2``.

    QPSK points lie on the axes, so each Gray bit is decided by the sign of
    one of the +-45 degree coordinates ``u = (x+y)/sqrt2``, ``v = (x-y)/sqrt2``
    of the estimate.  Given a channel these are jointly Gaussian with
    covariance ``(N0/2) W (A^T A)^-1 W^T``.  Returns their standard
    deviations ``(B, 2K)`` and squared correlations ``(B, 2K, 2K)``.
    """
    n = 2 * k
    idx = np.arange(k)
    w = np.zeros((n, n))
    w[idx, idx] = w[idx, idx + k] = w[idx + k, idx] = 1 / math.sqrt(2)
    w[idx + k, idx + k] = -1 / math.sqrt(2)
    a = model_matrix(gains, k)
    cov = w @ np.linalg.inv(a.transpose(0, 2, 1) @ a) @ w.T
    sd = np.sqrt(np.einsum("bii->bi", cov))
    return sd, (cov / sd[:, :, None] / sd[:, None, :]) ** 2


def zf_bit_error_probs(sd_unit, n_t, esno_db):
    """Per-bit error probabilities ``Q(a / sigma)``, ``a = 1/sqrt(2 n_t)``."""
    n0 = 10.0 ** (-esno_db / 10.0)
    return _q(1.0 / math.sqrt(2.0 * n_t) / (sd_unit * math.sqrt(n0 / 2.0)))


def zf_qpsk_stats(k, n_t, n_r, esno_db, draws, seed, chunk=50):
    """Per-block error statistics of ZF-decoded QPSK over Rayleigh fading.

    Returns one dict per Es/N0 with, per block of ``2K`` bits: ``mean`` (mean
    errors), ``var_between`` (variance over channels of the conditional
    mean), ``var_within`` (mean over channels of a bound on the conditional
    variance) and ``draws``.  The bound: transmitted bits are independent
    and uniform, so the covariance of two error indicators is the even part
    in the noise correlation ``rho``, which the Hermite expansion bounds by
    ``rho^2 sqrt(v_i v_j)``, ``v = p(1-p)``.
    """
    rng = np.random.default_rng(seed)
    mus = [[] for _ in esno_db]
    within = [[] for _ in esno_db]
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        g = (rng.standard_normal((b, n_r, n_t))
             + 1j * rng.standard_normal((b, n_r, n_t))) / math.sqrt(2.0)
        sd_unit, rho2 = zf_decisions(g, k)
        diag = np.arange(2 * k)
        rho2[:, diag, diag] = 1.0
        for i, e in enumerate(esno_db):
            p = zf_bit_error_probs(sd_unit, n_t, e)
            sv = np.sqrt(p * (1.0 - p))
            mus[i].append(p.sum(axis=1))
            within[i].append(np.einsum("bi,bij,bj->b", sv, rho2, sv))
        done += b
    out = []
    for e, mu, vw in zip(esno_db, mus, within):
        mu = np.concatenate(mu)
        out.append({
            "esno_db": float(e),
            "mean": float(mu.mean()),
            "var_between": float(mu.var(ddof=1)),
            "var_within": float(np.concatenate(vw).mean()),
            "draws": int(mu.size),
        })
    return out


# ---------------------------------------------------------------------------
# Craig / MGF integrals
# ---------------------------------------------------------------------------

def _hoyt_q(m):
    """Axial ratio q of a Hoyt branch with Nakagami severity m."""
    if m == 0.5:
        return 0.0
    return optimize.brentq(lambda q: (1 + q * q) ** 2 / (2 * (1 + q ** 4)) - m, 0.0, 1.0,
                           xtol=1e-15)


def _rice_k(m):
    """Rice factor of a branch with Nakagami severity m."""
    if m == 1.0:
        return 0.0
    return optimize.brentq(lambda kf: (1 + kf) ** 2 / (1 + 2 * kf) - m, 0.0, 4 * m + 1,
                           xtol=1e-15)


def branch_mgf(m, gamma_bar):
    """MGF ``s -> E[exp(s gamma)]`` (s <= 0) of one branch of severity m.

    m < 1 is Hoyt (two unequal Gaussian quadratures), m == 1 Rayleigh and
    m > 1 Rice.
    """
    if m < 1.0:
        q2 = _hoyt_q(m) ** 2
        return lambda s: ((1 - 2 * s * gamma_bar / (1 + q2))
                          * (1 - 2 * s * gamma_bar * q2 / (1 + q2))) ** -0.5
    kf = _rice_k(m)
    return lambda s: (1 + kf) / (1 + kf - s * gamma_bar) * math.exp(
        kf * s * gamma_bar / (1 + kf - s * gamma_bar))


def mixed_branches(n_t):
    """(severity, mean power) per antenna of the ``mixed`` channel.

    Severity rises linearly from 0.5 to 4 while mean power falls linearly,
    the powers summing to one.
    """
    return [(0.5 + 3.5 * a / (n_t - 1), 2.0 * (n_t - a) / (n_t * (n_t + 1)))
            for a in range(n_t)]


def equal_branches(n_t):
    """Rayleigh branches of unit mean power."""
    return [(1.0, 1.0)] * n_t


class Diversity:
    """Independent branches combined linearly: the MGF of the summed SNR.

    ``branches`` lists ``(m, omega)`` per transmit antenna; each is seen by
    ``n_r`` receive antennas.  ``shared`` divides the transmit power among
    the antennas, as the simulator and ``capacity`` do.
    """

    def __init__(self, branches, n_r, esno_db, shared):
        scale = 10.0 ** (esno_db / 10.0) / (len(branches) if shared else 1)
        self._mgfs = [branch_mgf(m, om * scale) for m, om in branches]
        self._n_r = n_r

    def __call__(self, s):
        out = 1.0
        for f in self._mgfs:
            out *= f(s)
        return out ** self._n_r


def _quad(f, lo, hi):
    val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def _phase_tail(mgf, psi):
    """P(received phase in (psi, pi)) for one side, averaged over fading."""
    g = math.sin(psi) ** 2
    return _quad(lambda t: mgf(-g / math.sin(t) ** 2), 0.0, math.pi - psi) / (2 * math.pi)


def _gray(i):
    return i ^ (i >> 1)


def psk_ber(order, mgf):
    """Gray M-PSK BER: sector probabilities times mean label distances."""
    bits = order.bit_length() - 1
    total = 0.0
    for k in range(1, order // 2 + 1):
        lo = (2 * k - 1) * math.pi / order
        if k < order // 2:
            p = _phase_tail(mgf, lo) - _phase_tail(mgf, (2 * k + 1) * math.pi / order)
            mult = 2  # offsets k and M-k are mirror images
        else:
            p = 2 * _phase_tail(mgf, lo)
            mult = 1
        dist = sum(bin(_gray(i) ^ _gray((i + k) % order)).count("1")
                   for i in range(order)) / order
        total += mult * p * dist
    return total / bits


def qam_ber(order, mgf):
    """Gray square-QAM BER by enumerating per-axis decision regions."""
    bits = order.bit_length() - 1
    side = math.isqrt(order)
    # axis error probability as a sum of Q((2j+1) d / sigma) terms, d the
    # half spacing; coef[j] collects their weights
    coef = np.zeros(side)
    for sent in range(side):
        for got in range(side):
            if got == sent:
                continue
            ham = bin(_gray(sent) ^ _gray(got)).count("1")
            off = got - sent
            lo, hi = 2 * off - 1, 2 * off + 1  # boundaries in units of d
            for edge, sign in ((lo, 1.0), (hi, -1.0)):
                if (edge == lo and got == 0) or (edge == hi and got == side - 1):
                    continue  # open outer region
                j = (abs(edge) - 1) // 2
                coef[j] += sign * ham * (1.0 if edge > 0 else -1.0) / side
    d2 = 3.0 / (2.0 * (order - 1))
    total = 0.0
    for j, c in enumerate(coef):
        if c == 0.0:
            continue
        g = (2 * j + 1) ** 2 * d2
        total += c * _quad(lambda t: mgf(-g / math.sin(t) ** 2), 0.0, math.pi / 2) / math.pi
    return 2.0 * total / bits


def _parse(name):
    name = {"bpsk": "psk2", "qpsk": "psk4"}.get(name, name)
    return name[:3], int(name[3:])


def bits_per_symbol(name):
    """Bits per symbol of a CLI modulation name."""
    return _parse(name)[1].bit_length() - 1


def ber(name, mgf):
    """BER of a CLI modulation name ("psk8", "qam256", "qpsk", ...)."""
    family, order = _parse(name)
    return psk_ber(order, mgf) if family == "psk" else qam_ber(order, mgf)


def hard_decision_rate(bits, p):
    """Capacity of a binary symmetric channel per symbol, ``bits (1 - H(p))``."""
    p = min(max(p, 0.0), 0.5)
    if p == 0.0:
        return float(bits)
    return bits * (1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def rayleigh_qpsk_closed_form(branches, gamma_bar):
    """QPSK BER with maximal-ratio combining of i.i.d. Rayleigh branches.

    Each Gray bit is a BPSK decision at half the symbol SNR (Proakis).
    """
    mu = math.sqrt(gamma_bar / 2.0 / (1.0 + gamma_bar / 2.0))
    return ((1 - mu) / 2) ** branches * sum(
        math.comb(branches - 1 + k, k) * ((1 + mu) / 2) ** k for k in range(branches))


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    spec = K128_SPEC
    points = zf_qpsk_stats(spec["k"], spec["n_t"], spec["n_r"], spec["esno_db"],
                           spec["draws"], spec["seed"])
    with open(K128_FILE, "w") as fh:
        json.dump({"spec": spec, "points": points}, fh, indent=2)
        fh.write("\n")
    for p in points:
        print(f"{p['esno_db']:5.1f} dB  BER {p['mean'] / (2 * spec['k']):.6g}  "
              f"var_between {p['var_between']:.4g}  var_within {p['var_within']:.4g}")


if __name__ == "__main__":
    main()
