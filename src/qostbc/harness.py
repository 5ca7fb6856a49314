"""Link-level Monte Carlo harness, structural verification and capacity.

The simulator runs blocks in fixed-size batches.  Batch ``j`` of SNR point
``i`` draws everything it needs from its own RNG stream derived from
``(seed, i, j)``, and batches are always consumed in index order, so a
sweep is bit-reproducible and independent of the worker count.  Transmit
power is shared across antennas (the encoder output is scaled by
``1/sqrt(n_t)``), which makes the per-branch mean SNR seen by the analytic
reference ``omega / (n_t * N0)`` at a given Es/N0.  The receiver decodes
with the gains it sees, ``gains / sqrt(n_t)``.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import analysis, fading
from .codes import build_mother, puncture, encode, gram_check, _is_power_of_two
from .channels import (
    extend_channel,
    encoded_channel_minors,
    build_encoded_channel,
    abba_manifold,
)
from .decoder import (
    BASIS_TOL,
    channel_gram,
    decode_batch,
    fixed_basis,
    reduce_channel,
    permutation_indexes,
    ReducedChannel,
)
from .modem import modulation, count_bit_errors

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "CheckResult",
    "VerifyReport",
    "verify",
    "capacity_sweep",
    "CAPACITY_MODULATIONS",
    "branch_stats",
    "reduction_residuals",
]

CSV_HEADER = "esno_db,ber_sim,ber_analytic,trials,bit_errors,seconds"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    k: int
    n_t: int
    n_r: int
    modulation: str = "qpsk"
    channel: str = "rayleigh"
    profile: str = "equipower"
    esno_db: tuple = (0.0, 5.0, 10.0)
    trials: int = 1_000_000
    target_errors: int = 200
    seed: int = 1234
    batch: int = 2048
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "esno_db", tuple(float(e) for e in self.esno_db))
        if not _is_power_of_two(self.k):
            raise ConfigError(f"K={self.k} must be a power of two")
        if not 1 <= self.n_t <= self.k:
            raise ConfigError(f"n_t={self.n_t} must lie in 1..K={self.k}")
        if self.n_r < 1:
            raise ConfigError("n_r must be >= 1")
        if not self.esno_db:
            raise ConfigError("empty Es/N0 sweep")
        if self.trials < 1 or self.target_errors < 1 or self.batch < 1:
            raise ConfigError("trials, target_errors and batch must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        try:
            modulation(self.modulation)
            branch_stats(self.n_t, self.channel, self.profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def branch_stats(n_t: int, channel: str, profile: str):
    """Per-transmit-branch fading statistics for a channel/profile spec."""
    family, m = fading.parse_channel_spec(channel)
    if family == "mixed":
        # ascending severity paired with descending power, total power one
        ms = fading.severity_profile(n_t)
        omegas = fading.linear_profile(n_t, 1.0)[::-1] / n_t
        fams = ["hoyt" if mm < 1 else ("rayleigh" if mm == 1 else "rice") for mm in ms]
        return [fading.BranchStat(f, mm, om) for f, mm, om in zip(fams, ms, omegas)]
    kind, pmax = fading.parse_profile_spec(profile)
    if kind == "equipower":
        omegas = np.ones(n_t)
    else:
        omegas = fading.linear_profile(n_t, pmax / 2.0)
    return [fading.BranchStat(family, m, float(om)) for om in omegas]


def _shared_power(stats):
    """Branch statistics with omegas divided by n_t (transmit sharing)."""
    n_t = len(stats)
    return tuple(
        fading.BranchStat(s.family, s.m, s.omega / n_t) for s in stats
    )


def analytic_ber(config: ExperimentConfig, esno_db):
    """Full-diversity ML-bound BER for the configured experiment (rate one).

    This is the bound of maximum-likelihood decoding, not a prediction for
    the linear decoder the simulation runs: the two agree at ``K=2``, while
    at ``K >= 4`` the linear decoder reaches less diversity and its BER
    lies above this value.
    """
    mod = modulation(config.modulation)
    stats = branch_stats(config.n_t, config.channel, config.profile)
    params = analysis.BerParams(
        n_t=config.n_t, n_r=config.n_r, branches=_shared_power(stats)
    )
    fn = analysis.psk_ber if mod.family == "psk" else analysis.qam_ber
    return fn(mod.order, params, esno_db)


@dataclass(frozen=True)
class SweepPoint:
    esno_db: float
    ber_sim: float
    ber_analytic: float
    trials: int
    bit_errors: int
    seconds: float


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.esno_db:.10g},{r.ber_sim:.10g},{r.ber_analytic:.10g},"
                f"{r.trials},{r.bit_errors},{r.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"

    def config_dict(self) -> dict:
        return asdict(self.config)


def _sim_batch(config, mod, structure, stats, n0, snr_idx, batch_idx, nblocks):
    """Simulate one batch of blocks; returns the bit error count."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(snr_idx, batch_idx))
    )
    k, n_t, n_r = config.k, config.n_t, config.n_r
    bits = rng.integers(0, 2, size=(nblocks, k, mod.bits_per_symbol), dtype=np.uint8)
    syms = mod.map_bits(bits)
    tx = encode(structure, syms) / np.sqrt(n_t)
    gains = np.empty((nblocks, n_r, n_t), dtype=complex)
    for a, stat in enumerate(stats):
        gains[:, :, a] = fading.sample_gain(stat, rng, (nblocks, n_r))
    rx = np.einsum("bka,bia->bki", tx, gains)
    rx = fading.add_awgn(rx, n0, rng)
    gains /= np.sqrt(n_t)  # the channel the receiver sees
    estimates = decode_batch(rx, gains, k)[0]
    return count_bit_errors(bits, mod.demap(estimates))


def _batch_plan(cap, batch):
    done, idx = 0, 0
    while done < cap:
        n = min(batch, cap - done)
        yield idx, n
        done += n
        idx += 1


def _run_point(config, mod, structure, stats, esno_db, snr_idx):
    n0 = 10.0 ** (-esno_db / 10.0)
    t0 = time.perf_counter()
    errors = 0
    trials = 0
    if config.workers == 1:
        for idx, n in _batch_plan(config.trials, config.batch):
            errors += _sim_batch(config, mod, structure, stats, n0, snr_idx, idx, n)
            trials += n
            if errors >= config.target_errors:
                break
    else:
        # speculative submission; results consumed strictly in batch-index
        # order so the totals match the single-worker run exactly
        plan = _batch_plan(config.trials, config.batch)
        pending = deque()
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            exhausted = False
            while True:
                while not exhausted and len(pending) < config.workers:
                    nxt = next(plan, None)
                    if nxt is None:
                        exhausted = True
                        break
                    idx, n = nxt
                    pending.append(
                        (n, pool.submit(
                            _sim_batch, config, mod, structure, stats, n0, snr_idx, idx, n
                        ))
                    )
                if not pending:
                    break
                n, fut = pending.popleft()
                errors += fut.result()
                trials += n
                if errors >= config.target_errors:
                    for _, f in pending:
                        f.cancel()
                    pending.clear()
                    break
    seconds = time.perf_counter() - t0
    nbits = trials * config.k * mod.bits_per_symbol
    return errors, trials, nbits, seconds


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the Monte Carlo sweep and attach the analytic reference column.

    Per block: draw bits, modulate, encode with power normalisation,
    apply one block-fading gain per branch, add AWGN at the configured
    Es/N0, decode, hard-demap, count bit errors.  Each SNR point stops at
    ``target_errors`` bit errors or at the trial cap, whichever first.

    The ``ber_analytic`` column is the full-diversity ML bound of
    :func:`analytic_ber`; it matches the simulated linear decoder at
    ``K=2`` only and is not a prediction for it at ``K >= 4``.
    """
    mod = modulation(config.modulation)
    structure = puncture(build_mother(config.k), config.n_t)
    stats = branch_stats(config.n_t, config.channel, config.profile)
    ber_analytic = analytic_ber(config, config.esno_db)
    rows = []
    for snr_idx, esno_db in enumerate(config.esno_db):
        errors, trials, nbits, seconds = _run_point(
            config, mod, structure, stats, esno_db, snr_idx
        )
        rows.append(
            SweepPoint(
                esno_db=esno_db,
                ber_sim=errors / nbits,
                ber_analytic=float(ber_analytic[snr_idx]),
                trials=trials,
                bit_errors=errors,
                seconds=seconds,
            )
        )
    return SweepResult(config=config, rows=tuple(rows))


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------

# listed index splits the permutation generator must reproduce
KNOWN_SPLITS = {
    4: ([1, 4], [2, 3]),
    8: ([1, 4, 6, 7], [2, 3, 5, 8]),
    16: ([1, 4, 6, 7, 10, 11, 13, 16], [2, 3, 5, 8, 9, 12, 14, 15]),
}

IDENTITY_TOL = 1e-12
BLOCK_TOL = 1e-10
ROUNDTRIP_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    k: int
    value: float
    tol: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name:<28s} K={self.k:<4d} value={self.value:.3e} tol={self.tol:.0e}"


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [c.line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks)} checks, {n_fail} failures" if n_fail else f"{len(self.checks)} checks, all passed"
        )
        return "\n".join(lines)


def reduction_residuals(red: ReducedChannel):
    """Off-block residual of the permuted products at each reduction order.

    The off-blocks are algebraic zeros, so each residual is reported
    relative to the norms of the factors that formed the product; the
    factors are renormalised at every order, which keeps the chain both
    overflow-free and scale-invariant.  The chain runs in extended
    precision so that round-off accumulation stays clear of the check
    tolerance even for the largest supported sizes.
    """
    a = np.asarray(red.matrix, dtype=np.clongdouble)
    a = a / np.linalg.norm(a)
    b = a
    order = red.order
    out = []
    while a.shape[-1] >= 2:
        g = a.T @ b
        pair = permutation_indexes(a.shape[-1])
        q0, q1 = pair.p0 - 1, pair.p1 - 1
        off = max(
            float(np.abs(g[np.ix_(q0, q1)]).max()),
            float(np.abs(g[np.ix_(q1, q0)]).max()),
        )
        out.append((order, off))  # factors have unit norm
        a = g[np.ix_(q0, q0)]
        b = g[np.ix_(q1, q1)]
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        order += 1
    return out


def verify(k_max: int = 256, seed: int = 0) -> VerifyReport:
    """Run the structural suite for every block size up to ``k_max``.

    Covers: the encoded-channel factorisation identity, the Gram
    block-orthogonality of the code, the quasi-orthogonality of the
    channel manifolds, block-diagonality of the permuted reduced products
    at every order, the diagonalisation of a channel's real Gram matrix
    by the decoder's fixed basis, noiseless decoding round trips, and the
    listed permutation index sets.
    """
    if not _is_power_of_two(k_max) or k_max < 2:
        raise ConfigError(f"K={k_max} must be a power of two >= 2")
    rng = np.random.default_rng(seed)
    checks = []

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n, (p0, p1) in sorted(KNOWN_SPLITS.items()):
        pair = permutation_indexes(n)
        good = list(pair.p0) == p0 and list(pair.p1) == p1
        checks.append(CheckResult("permutation-sets", n, 0.0 if good else 1.0, 0.0, good))

    k = 2
    while k <= k_max:
        s = crandn(k)
        h = crandn(k)
        structure = build_mother(k)
        c = encode(structure, s)

        top_h1, top_h2 = encoded_channel_minors(h, k)
        model = np.concatenate([top_h1 @ s, top_h2 @ np.conj(s)])
        direct = c @ h
        res = np.linalg.norm(direct - model) / np.linalg.norm(direct)
        checks.append(CheckResult("received-block-identity", k, res, IDENTITY_TOL, res <= IDENTITY_TOL))

        _, off = gram_check(c)
        g_scale = float(np.abs(c @ c.conj().T).max())
        res = off / g_scale
        checks.append(CheckResult("code-gram-blocks", k, res, BLOCK_TOL, res <= BLOCK_TOL))

        hp = extend_channel(h, k)
        m_full = abba_manifold(hp, "channel")
        m_mod = abba_manifold(np.concatenate([hp[k // 2 :], hp[: k // 2]]), "combining")
        p = m_full.conj().T @ m_full + m_mod.T @ np.conj(m_mod)
        half = k // 2
        res = max(
            float(np.abs(p[:half, half:]).max()), float(np.abs(p[half:, :half]).max())
        ) / float(np.abs(p).max())
        checks.append(CheckResult("channel-quasi-orthogonality", k, res, BLOCK_TOL, res <= BLOCK_TOL))

        if k >= 4:
            red = reduce_channel(build_encoded_channel(h, k))
            worst = max(r for _, r in reduction_residuals(red))
            checks.append(CheckResult("reduction-block-diagonal", k, worst, BLOCK_TOL, worst <= BLOCK_TOL))

        basis = fixed_basis(k)
        d = basis.q.T @ channel_gram(h, k) @ basis.q
        res = float(np.abs(d - np.diag(np.diag(d))).max() / np.abs(np.diag(d)).max())
        checks.append(CheckResult("fixed-basis-diagonal", k, res, BASIS_TOL, res <= BASIS_TOL))

        for n_r in (1, 2, 4):
            for n_t in sorted({k, k - 1, min(3, k)}):
                s = crandn(k)
                gains = crandn(n_r, n_t)
                tx = encode(puncture(structure, n_t), s)
                rx = tx @ gains.T
                est = decode_batch(rx[None], gains[None], k)[0]
                res = np.linalg.norm(est[0] - s) / np.linalg.norm(s)
                checks.append(
                    CheckResult(f"round-trip(nt={n_t},nr={n_r})", k, res, ROUNDTRIP_TOL, res <= ROUNDTRIP_TOL)
                )
        k *= 2
    return VerifyReport(tuple(checks))


# ---------------------------------------------------------------------------
# hard-decision rate capacity
# ---------------------------------------------------------------------------

CAPACITY_MODULATIONS = (
    "psk2",
    "psk4",
    "psk8",
    "qam16",
    "qam64",
    "qam256",
    "qam1024",
    "qam4096",
)


def capacity_sweep(
    esno_db,
    n_t: int,
    n_r: int,
    channel: str = "rayleigh",
    profile: str = "equipower",
    rho: float = 1.0,
    eta: float = 1.0,
    mods=CAPACITY_MODULATIONS,
):
    """Achievable hard-decision rate per modulation plus the envelope.

    Returns
    -------
    (names, rows) : tuple
        ``names`` are the modulation labels; each row is
        ``(esno_db, rates..., envelope)``.
    """
    stats = _shared_power(branch_stats(n_t, channel, profile))
    params = analysis.BerParams(n_t=n_t, n_r=n_r, branches=stats, rho=rho, eta=eta)
    esno_db = np.ravel(np.asarray(esno_db, dtype=float))
    columns = []
    for name in mods:
        mod = modulation(name)
        fn = analysis.psk_ber if mod.family == "psk" else analysis.qam_ber
        pbar = np.clip(fn(mod.order, params, esno_db), 0.0, 0.5)
        columns.append([analysis.capacity(mod.bits_per_symbol, rho, float(p)) for p in pbar])
    rows = [(float(e), *rates, max(rates)) for e, rates in zip(esno_db, zip(*columns))]
    return list(mods), rows
