"""Link-level Monte Carlo harness, structural verification and capacity.

The simulator runs blocks in fixed-size batches.  Batch ``j`` of SNR point
``i`` draws everything it needs from its own RNG stream derived from
``(seed, i, j)``, and batches are always consumed in index order, so a
sweep is bit-reproducible and independent of the worker count.  Transmit
power is shared across antennas, so the ``branches`` of an
:class:`ExperimentConfig` have each mean power ``omega`` divided by ``n_t``.
Every batch draws its gains from them and decodes with those gains, and the
analytic reference integrates over them: both see the per-branch mean SNR
``omega / (n_t * N0)``.  The received blocks are formed in the code's Walsh domain
(:func:`~qostbc.channels.received_blocks`), so no transmit matrix is built;
:func:`verify` checks that model against :func:`~qostbc.codes.encode`.
Each point also records the decoder's conditioning, the smallest ratio of
smallest to largest Gram eigenvalue over its blocks.

A sweep runs each point in rounds of ``workers`` consecutive batches.  The
calling thread runs the first batch of a round, and one thread pool of
``workers - 1`` threads runs the others; the pool is started once per sweep
and shut down before :func:`run_sweep` returns, and with one worker none is
started.  Once every batch of a round has ended, its results are consumed in
batch order, and the point stops at the first batch that reaches the error
target.  So a point runs at most ``workers - 1`` batches it does not use,
the same ones at every run, and no batch runs beside another point's.
Every stage of a batch allocates its own arrays, and a batch frees each
once it is dead, so the memory of a sweep is that of at most ``workers``
batches.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis, fading
from .codes import build_mother, encode, _is_power_of_two, _walsh_product
from .channels import encoded_channel_minors, received_blocks, _gain_transforms
from .decoder import decode_batch
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
    "permutation_indexes",
    "reduction_residuals",
]

CSV_HEADER = "esno_db,ber_sim,ber_analytic,trials,bit_errors,seconds"

# Most worker threads a sweep may start: each runs one batch at a time.
MAX_WORKERS = 64


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_block_size(k):
    """Accept the block sizes that ``verify`` certifies: 2, 4, .., ``RESIDUE_K_MAX``."""
    if not _is_power_of_two(k) or k < 2:
        raise ConfigError(f"K={k} must be a power of two >= 2")
    if k > RESIDUE_K_MAX:
        raise ConfigError(f"K={k} exceeds {RESIDUE_K_MAX}, the largest block size verify supports")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulate sweep, validated when built.

    ``branches``, the channel the receiver sees (:func:`_shared_branches`),
    and ``mod``, the :class:`~qostbc.modem.Modulation` named by
    ``modulation``, are built once here for every batch and the analytic
    reference.  They are attributes, not fields, so ``asdict`` omits them.
    """

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
        _check_block_size(self.k)
        if not 1 <= self.n_t <= self.k:
            raise ConfigError(f"n_t={self.n_t} must lie in 1..K={self.k}")
        if self.n_r < 1:
            raise ConfigError("n_r must be >= 1")
        if not self.esno_db:
            raise ConfigError("empty Es/N0 sweep")
        for e in self.esno_db:
            try:
                finite = math.isfinite(10.0 ** (-e / 10.0))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"Es/N0 {e:g} dB gives a noise power that is not a finite float")
        if self.trials < 1 or self.target_errors < 1 or self.batch < 1:
            raise ConfigError("trials, target_errors and batch must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers={self.workers} must lie in 1..{MAX_WORKERS}")
        try:
            mod = modulation(self.modulation)
            branches = _shared_branches(self.n_t, self.channel, self.profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "mod", mod)
        object.__setattr__(self, "branches", branches)


def branch_stats(n_t: int, channel: str, profile: str):
    """Per-transmit-branch fading statistics for a channel/profile spec.

    ``n_t`` is at most ``RESIDUE_K_MAX``, the largest block size and so the
    most antennas that ``simulate`` accepts.  The powers are those before
    the transmit power is shared (:func:`_shared_branches`).  Equipower
    gives each branch power 1 and ``channel="mixed"`` scales its powers to
    sum to 1, so once shared the powers sum to 1 for equipower but to
    ``1 / n_t`` for ``"mixed"``.
    """
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    if n_t > RESIDUE_K_MAX:
        raise ValueError(f"n_t={n_t} exceeds {RESIDUE_K_MAX}, the most transmit antennas supported")
    family, m = fading.parse_channel_spec(channel)
    if family == "mixed":
        # ascending severity paired with descending power, total power one
        ms = fading.severity_profile(n_t)
        omegas = fading.linear_profile(n_t, 1.0)[::-1] / n_t
        return [fading.BranchStat(fading.severity_family(mm), mm, om) for mm, om in zip(ms, omegas)]
    kind, pmax = fading.parse_profile_spec(profile)
    if kind == "equipower":
        omegas = np.ones(n_t)
    else:
        omegas = fading.linear_profile(n_t, pmax / 2.0)
    return [fading.BranchStat(family, m, float(om)) for om in omegas]


def _shared_branches(n_t: int, channel: str, profile: str):
    """:func:`branch_stats` with each omega divided by ``n_t``: the channel the receiver sees."""
    return tuple(fading.BranchStat(s.family, s.m, s.omega / n_t) for s in branch_stats(n_t, channel, profile))


def analytic_ber(config: ExperimentConfig, esno_db):
    """Full-diversity ML-bound BER for the configured experiment (rate one).

    The BER of ``config.mod`` over ``config.branches``, the channel the
    batches draw, is the bound of maximum-likelihood decoding, not a
    prediction for the linear decoder the simulation runs: the two agree at
    ``K=2``, while at ``K >= 4`` the linear decoder reaches less diversity.
    """
    params = analysis.BerParams(n_t=config.n_t, n_r=config.n_r, branches=config.branches)
    return analysis.bit_error_rate(config.mod, params, esno_db)


@dataclass(frozen=True)
class SweepPoint:
    esno_db: float
    ber_sim: float
    ber_analytic: float
    trials: int
    bit_errors: int
    seconds: float
    min_eigenvalue_ratio: float  # smallest lambda_min / lambda_max over the blocks


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


def _sim_batch(config, n0, snr_idx, batch_idx, nblocks):
    """Simulate one batch of blocks.

    Returns the bit error count and the smallest ratio of smallest to
    largest Gram eigenvalue over the batch's blocks.  Each array is freed
    once no later stage needs it.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(snr_idx, batch_idx))
    )
    k, n_r, mod = config.k, config.n_r, config.mod
    bits = rng.integers(0, 2, size=(nblocks, k, mod.bits_per_symbol), dtype=np.uint8)
    symbols = mod.map_bits(bits)
    gains = fading.sample_gains(config.branches, rng, (nblocks, n_r))
    # the forward model and the decoder share one transform of the gains
    g = _gain_transforms(gains, k)
    rx = received_blocks(symbols, gains, transforms=g)
    del symbols
    rx = fading.add_awgn(rx, n0, rng)
    estimates, lam = decode_batch(rx, gains, transforms=g)
    del gains, g, rx
    ratio = float((lam.min(axis=1) / lam.max(axis=1)).min())
    return count_bit_errors(bits, mod.demap(estimates)), ratio


def _batch_results(config, n0, snr_idx, pool):
    """Yield ``(blocks, (errors, ratio))`` for each batch of a point, in batch order.

    Each round of ``workers`` batches runs the first here and the rest on
    ``pool``, and is yielded once all of its results are in.
    """
    batch, workers = config.batch, config.workers
    starts = range(0, config.trials, batch)
    for j in range(0, len(starts), workers):
        sizes = [min(batch, config.trials - s) for s in starts[j : j + workers]]
        args = [(config, n0, snr_idx, j + i, n) for i, n in enumerate(sizes)]
        futures = [pool.submit(_sim_batch, *a) for a in args[1:]]
        results = [_sim_batch(*args[0])] + [f.result() for f in futures]
        yield from zip(sizes, results)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the Monte Carlo sweep and attach the analytic reference column.

    Per block: draw bits, modulate, draw one block-fading gain per branch
    of ``config.branches``, form the received block ``C(s) h`` in the
    Walsh domain (:func:`~qostbc.channels.received_blocks`), add AWGN at
    the configured Es/N0, decode, hard-demap, count bit errors.  Each SNR point stops at
    ``target_errors`` bit errors or at the trial cap, whichever first, and
    records the smallest Gram eigenvalue ratio of the blocks it consumed.

    The ``ber_analytic`` column is the full-diversity ML bound of
    :func:`analytic_ber`; it matches the simulated linear decoder at
    ``K=2`` only and is not a prediction for it at ``K >= 4``.
    """
    ber_analytic = analytic_ber(config, config.esno_db)
    rows = []
    with ThreadPoolExecutor(max_workers=config.workers - 1) if config.workers > 1 else nullcontext() as pool:
        for snr_idx, esno_db in enumerate(config.esno_db):
            t0 = time.perf_counter()
            errors = trials = 0
            ratio = 1.0
            for n, (e, r) in _batch_results(config, 10.0 ** (-esno_db / 10.0), snr_idx, pool):
                errors += e
                trials += n
                ratio = min(ratio, r)
                if errors >= config.target_errors:
                    break
            rows.append(
                SweepPoint(
                    esno_db=esno_db,
                    ber_sim=errors / (trials * config.k * config.mod.bits_per_symbol),
                    ber_analytic=float(ber_analytic[snr_idx]),
                    trials=trials,
                    bit_errors=errors,
                    seconds=time.perf_counter() - t0,
                    min_eigenvalue_ratio=ratio,
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

ROUNDTRIP_TOL = 1e-9

# Largest |Re| and |Im| of the Gaussian-integer draws of the exact checks.
EXACT_PART_MAX = 255

# Modulus of the exact reduction check: the largest prime below 2^20.
RESIDUE_PRIME = 1_048_573
# Largest K whose residue products stay exact in float64: the first one sums
# 2K products of magnitude below RESIDUE_PRIME^2, and 2 * 4096 * P^2 < 2^53.
RESIDUE_K_MAX = 4096


@dataclass(frozen=True)
class CheckResult:
    name: str
    k: int
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol

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


def permutation_indexes(n: int):
    """Index split describing the real quasi-orthogonality pattern.

    Returns ``(p0, p1)``, complementary 1-based index sets splitting
    ``1..N`` in half.  ``p0`` collects the ``x`` in ``1..N`` with
    ``popcount(x - 1)`` even and ``p1`` the rest: the Thue-Morse split, the
    closed form of the paper's ``p(x) = (x + sum_{j>=1} floor((x-1)/2^j))
    mod 2`` with ``p0`` where ``p(x) = 1``.  The ``p0`` columns (rows) of a
    reduced channel matrix are real-orthogonal to its ``p1`` columns (rows).

    The sets are prefix-consistent: the first ``N/2`` entries of each set
    for size ``N`` are the sets for size ``N/2``.
    """
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"N={n} must be a power of two >= 2")
    x = np.arange(1, n + 1)
    odd = np.bitwise_count(x - 1) & 1
    return x[odd == 0], x[odd == 1]


def _split_blocks(g, q0, q1):
    """Split ``g`` of shape ``(..., n, n)`` along the 0-based index sets ``q0, q1``.

    The sets are those of :func:`permutation_indexes` ``(n)``, less one.
    Returns ``(g00, g11), (g01, g10)``: the two diagonal blocks and the two
    off-blocks, with ``gab`` the rows ``qa`` and columns ``qb`` of ``g``.
    The paper's nested chain rests on the off-blocks vanishing at every
    order, which :func:`reduction_residuals` checks with this split.
    """
    return (
        (g[..., q0[:, None], q0], g[..., q1[:, None], q1]),
        (g[..., q0[:, None], q1], g[..., q1[:, None], q0]),
    )


def _mod_prime(x):
    """``x`` modulo ``RESIDUE_PRIME``, in place, for integer-valued float64 ``x``.

    A complex ``x``, contiguous along its last axis, has both parts
    reduced.  Exact for ``|x| <= 2^53 - 2^21``, which holds every product
    of :func:`reduction_residuals` and every sum of :func:`verify`.  The
    quotient ``q = floor(x * (1 / P))`` is off by at most one, since the
    two roundings in ``x * (1 / P)`` shift it by less than ``2^-18``.  So
    ``|q P| < |x| + 2P <= 2^53`` and ``q P`` is exact, ``x - q P`` is a
    small integer and exact too, and one correction by ``P`` either way
    brings it into ``0 .. P - 1``.  ``np.fmod`` and ``%`` give the same
    result at several times the cost of the product they reduce.
    """
    if np.iscomplexobj(x):
        _mod_prime(x.view(x.real.dtype))  # both parts, as one real array
        return x
    q = x * (1.0 / RESIDUE_PRIME)
    np.floor(q, out=q)
    q *= RESIDUE_PRIME
    x -= q
    np.add(x, RESIDUE_PRIME, out=x, where=x < 0)
    np.subtract(x, RESIDUE_PRIME, out=x, where=x >= RESIDUE_PRIME)
    return x


def reduction_residuals(k: int, rng):
    """Nonzero off-block entries of the permuted products at every reduction order.

    The paper decodes with a chain of reductions.  The matched filter of a
    block gives two half-length vectors, each the first-order reduced
    matrix ``M = conj(H1 H1^H + H2 H2^H) / 2`` times one symbol half.  The
    chain forms ``g = M^T M``, splits it along ``permutation_indexes`` into
    diagonal blocks ``B0, B1``, forms ``g = B0^T B1``, and so on, splitting
    the vectors alongside until every symbol stands alone; the tests run
    it in floating point (``tests/oracles.py``).  It rests on the
    off-blocks of every ``g`` vanishing for every channel.  This runs the
    same chain of products on integers modulo ``RESIDUE_PRIME``, which
    checks that exactly, splitting each ``g`` with ``_split_blocks``.  The
    split sets are prefix-consistent, so one :func:`permutation_indexes`
    ``(K/2)`` serves every order.

    Minor entries are ``+-h_j`` or 0 and the products use transposes only,
    so each off-block entry is an integer polynomial ``p(h, conj(h))``.  It
    vanishes for all real ``Re h`` and ``Im h``, and ``(Re h, Im h) -> (h,
    conj(h))`` is an invertible linear substitution, so ``p(u, v)`` is the
    zero polynomial in independent ``u`` and ``v``: its integer
    coefficients are zero and it vanishes modulo any prime.  So ``u`` and
    ``v`` are drawn from ``rng`` as independent residues; the minors of
    ``v`` stand for the conjugates of those of ``u``, which gives ``2M``.
    The factor 2 scales each product by a nonzero constant and leaves its
    zeros in place.  A correct code thus counts 0 on every draw, while a
    sign error leaves a nonzero polynomial of degree at most ``K``, zero at
    a random point with probability at most ``K / RESIDUE_PRIME``
    (Schwartz, J. ACM 1980).  The chain runs on two independent draws and
    the counts are summed, so a broken identity passes with probability at
    most ``(K / RESIDUE_PRIME)^2``, 6.0e-8 at ``K=256``.

    The products are float64 matrix products, reduced by
    :func:`_mod_prime`.  They are exact: the residues lie in ``-P+1 ..
    P-1`` and no product sums more than ``2K`` terms, so every partial sum
    is an integer below ``2 K (P-1)^2 < 2^53`` up to ``RESIDUE_K_MAX``.

    Returns
    -------
    list of (order, count)
        One pair per order ``1 .. log2(K) - 1``, counted over both draws;
        empty at ``K=2``.
    """
    if k > RESIDUE_K_MAX:
        raise ValueError(f"K={k} exceeds {RESIDUE_K_MAX}: the residue products would lose float64 exactness")
    counts = [0] * (int(np.log2(k)) - 1)
    if not counts:
        return []
    q0, q1 = (p - 1 for p in permutation_indexes(k // 2))
    for _ in range(2):
        uv = rng.integers(0, RESIDUE_PRIME, size=(2, k)).astype(float)
        (u1, v1), (u2, v2) = encoded_channel_minors(uv, k)  # both in one call
        g = v1 @ u1.T
        g += v2 @ u2.T
        del u1, u2, v1, v2  # before the next draw's minors
        a = b = _mod_prime(g)
        for i in range(len(counts)):
            h = len(a) // 2
            (a, b), offs = _split_blocks(_mod_prime(a.T @ b), q0[:h], q1[:h])
            counts[i] += sum(int(np.count_nonzero(o)) for o in offs)
    return list(enumerate(counts, 1))


def verify(k_max: int = 256, seed: int = 0) -> VerifyReport:
    """Run the structural suite for every block size ``K`` up to ``k_max``.

    Each ``K`` draws Gaussian integers ``s`` and ``h`` of length ``K`` and
    ``y`` of length ``K/2``, parts in ``-EXACT_PART_MAX..EXACT_PART_MAX``.
    It forms ``C = encode(build_mother(K), s)`` and ``r = C h``, and once
    ``C`` and its structure are freed, the minors ``H1, H2`` of ``h``; the
    round trips run as one padded batch per ``K``.  No table outlives its
    ``K``, nor the call.  Every check but the reduction chain costs O(K^2)
    per ``K``.  The chain costs O(K^3): 52-59 % of ``verify(1024)`` and
    80-82 % of ``verify(4096)`` (cProfile, one BLAS thread, 2-core
    machine).  An *exact* check has tolerance 0 and reports the largest
    absolute entry of its residual:

    - ``permutation-sets`` (exact): the listed splits of ``KNOWN_SPLITS``.
    - ``code-gram-blocks`` (exact): the off-diagonal half ``C_top C_bot^H``
      of ``C C^H`` vanishes, as the one product ``C_top (C_bot^H y) = 0``
      (Freivalds, 1977); the other half is its conjugate transpose.
    - ``walsh-forward-model(nt=...)`` (exact): the simulator's
      :func:`~qostbc.channels.received_blocks` equals ``C h``, both cut to
      the leftmost ``n_t`` in ``{K, K-1, 3}``, in one call of one block per
      ``n_t``.
    - ``received-block-identity`` (exact): ``[H1 s; H2 conj(s)] = r``, two
      closed forms worked out apart: the code's and the minors'.
    - ``walsh-matched-filter`` (exact, in part modulo a prime): the matched
      filter ``c = H1^H r_top + H2^T conj(r_bot)`` satisfies ``(K/2) c_j =
      V (lambda * V^H s_j)`` for both symbol halves ``s_j``, with ``V =
      walsh_basis(K/2)`` and the ``lambda`` of
      :func:`~qostbc.decoder.decode_batch` in its Walsh order; and ``V^H (V
      y) = (K/2) y``.  Every product with ``V`` runs through
      :func:`~qostbc.codes._walsh_product`, the decoder's own, so the
      second identity (Freivalds, 1977) certifies the factored product that
      the decoder and the simulator apply.
    - ``reduction-block-diagonal`` (exact modulo a prime, ``K >= 4``): the
      count of nonzero off-block entries of :func:`reduction_residuals`, on
      two residue draws of its own.
    - ``round-trip(nt=...,nr=...)`` (relative error at most
      ``ROUNDTRIP_TOL``): noiseless decoding, on complex Gaussian draws of
      its own, of the blocks of :func:`~qostbc.channels.received_blocks`,
      which ``walsh-forward-model`` ties to ``C h``.  All ``(n_t, n_r)`` of
      one ``K`` form one batch, their gains zero-padded to ``4 x K``.  The
      padding is exact: puncturing is zero-padding, which the forward model
      and the decoder apply to the gains anyway, and a zero receive antenna
      adds exact zeros to ``lambda`` and to the combiners, and has a zero
      received block.

    ``walsh-matched-filter`` implies the decomposition the decoder rests
    on.  By ``received-block-identity``, ``c = P s`` with ``P = H1^H H1 +
    H2^T conj(H2)``, so ``c_0 = P00 s_0 + P01 s_1`` and ``c_1 = P10 s_0 +
    P11 s_1``.  As an identity in ``s`` it says ``P01 = P10 = 0`` and ``P00
    = P11 = V diag(lambda) V^H / (K/2)``, and with ``V^H V = (K/2) I``,
    ``V^H P00 V = V^H P11 V = (K/2) diag(lambda)``.

    Each exact check on the draws tests a polynomial identity of degree at
    most 3 in their parts at one random point: ``c`` and ``lambda V^H s``
    are cubic, and so is ``C_top C_bot^H y``.  A broken identity therefore
    passes with probability at most ``3 / (2 EXACT_PART_MAX + 1)`` = 3 / 511
    (Schwartz, J. ACM 1980).  The two sides of the matched-filter identity
    are compared modulo ``RESIDUE_PRIME``, because in float64 they would
    not stay exact.  That keeps the bound.  Every coefficient of either
    side is an integer of magnitude at most ``2K``, so a nonzero difference
    has a coefficient below ``4K < RESIDUE_PRIME`` and stays nonzero modulo
    the prime, and the 511 draw values are distinct modulo the prime.
    ``k_max`` is capped at ``RESIDUE_K_MAX``, beyond which the exact checks
    would lose their float64 exactness.
    """
    _check_block_size(k_max)
    rng = np.random.default_rng(seed)
    checks = []

    def exact(name, k, *residuals):
        value = max(float(np.abs(r).max()) for r in residuals)
        checks.append(CheckResult(name, k, value, 0.0))

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n, (p0, p1) in sorted(KNOWN_SPLITS.items()):
        exact("permutation-sets", n, float([list(q) for q in permutation_indexes(n)] != [p0, p1]))

    k = 2
    while k <= k_max:
        half = k // 2
        # The checks below are exact in float64.  Each product of two entries
        # of s, h or y has |Re|, |Im| at most 2 EXACT_PART_MAX^2 = 130050 <
        # 2^17, and V and 1 / (K/2) add no rounding.  So an entry of r = C h
        # lies below K 2^17 = 2^29, and the longest sum, an entry of the
        # matched filter c, has K terms below 2^38 and stays under 2^50 up to
        # K = RESIDUE_K_MAX.  The right side of the matched-filter identity
        # would not (lambda * V^H s alone reaches about 2^58), so it takes
        # lambda modulo RESIDUE_PRIME: its K/2 terms lie below 2^20 2^19, and
        # it stays under 2^50 too.  The sides are compared modulo the prime.
        # The products with V run one Kronecker factor at a time, and every
        # partial sum of the factored product is a sub-sum of the same
        # integer sum, with the same +-1, +-i signs: it stays below 2^50.
        z = rng.integers(-EXACT_PART_MAX, EXACT_PART_MAX + 1, size=(2, 2 * k + half))
        z = z[0] + 1j * z[1]
        s, h, y = z[:k], z[k : 2 * k], z[2 * k :]
        code = encode(build_mother(k), s)
        r = code @ h

        # C_bot^H y = conj(C_bot^T conj(y)), with no conjugated copy of C
        exact("code-gram-blocks", k, code[:half] @ np.conj(code[half:].T @ y.conj()))

        # puncturing keeps the leftmost n_t antennas: one block per n_t, zero beyond
        n_ts = sorted({k, k - 1, min(3, k)})
        punctured = np.where(np.arange(k) < np.array(n_ts)[:, None, None], h, 0)
        walsh = received_blocks(np.broadcast_to(s, (len(n_ts), k)), punctured)[..., 0]
        for n_t, row in zip(n_ts, walsh):
            exact(f"walsh-forward-model(nt={n_t})", k, row - code[:, :n_t] @ h[:n_t])
        del code

        h1, h2 = encoded_channel_minors(h, k)
        exact("received-block-identity", k, np.concatenate([h1 @ s, h2 @ s.conj()]) - r)
        # c = conj(conj(r_top) H1) + conj(r_bot) H2, by vector-matrix products
        c = np.conj(r[:half].conj() @ h1)
        c += r[half:].conj() @ h2
        del h1, h2

        lam = decode_batch(np.zeros((1, k, 1)), h[None, None])[1][0]
        # V^H x = conj(conj(x) V), with no conjugated copy of V
        rhs = np.conj(_walsh_product(s.reshape(2, half).conj()))
        rhs *= _mod_prime(lam)
        lhs = _mod_prime(c.reshape(2, half)) * half
        vy = _walsh_product(y, transpose=True)
        exact(
            "walsh-matched-filter", k,
            _mod_prime(lhs - _walsh_product(rhs, transpose=True)),
            np.conj(_walsh_product(np.conj(vy))) - half * y,
        )

        if k >= 4:
            exact("reduction-block-diagonal", k, sum(n for _, n in reduction_residuals(k, rng)))

        # the round trips draw their own s and gains, decoded as one batch padded to 4 x K
        pairs = [(n_t, n_r) for n_t in n_ts for n_r in (1, 2, 4)]
        sym = np.empty((len(pairs), k), complex)
        gains = np.zeros((len(pairs), 4, k), complex)
        for i, (n_t, n_r) in enumerate(pairs):
            sym[i], gains[i, :n_r, :n_t] = crandn(k), crandn(n_r, n_t)
        est = decode_batch(received_blocks(sym, gains), gains)[0]
        res = np.linalg.norm(est - sym, axis=1) / np.linalg.norm(sym, axis=1)
        for (n_t, n_r), value in zip(pairs, res.tolist()):
            checks.append(CheckResult(f"round-trip(nt={n_t},nr={n_r})", k, value, ROUNDTRIP_TOL))
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
    mods=CAPACITY_MODULATIONS,
):
    """Achievable hard-decision rate per modulation plus the envelope.

    Returns
    -------
    (names, rows) : tuple
        ``names`` are the modulation labels; each row is
        ``(esno_db, rates..., envelope)``.
    """
    params = analysis.BerParams(n_t=n_t, n_r=n_r, branches=_shared_branches(n_t, channel, profile), rho=rho)
    esno_db = np.ravel(np.asarray(esno_db, dtype=float))
    columns = []
    for name in mods:
        mod = modulation(name)
        pbar = np.clip(analysis.bit_error_rate(mod, params, esno_db), 0.0, 0.5)
        columns.append([analysis.capacity(mod.bits_per_symbol, rho, float(p)) for p in pbar])
    rows = [(float(e), *rates, max(rates)) for e, rates in zip(esno_db, zip(*columns))]
    return list(mods), rows
