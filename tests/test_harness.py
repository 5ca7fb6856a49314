"""Harness tests: reproducibility, worker invariance, configuration
validation, the verification report, fault injection, capacity sweep
properties and the command-line front end."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qostbc
import qostbc.analysis as analysis
import qostbc.channels as channels
import qostbc.codes as codes
import qostbc.fading as fading
import qostbc.harness as harness
from qostbc.cli import build_parser, main
from qostbc.decoder import decode_batch
from qostbc.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    _shared_branches,
    branch_stats,
    capacity_sweep,
    run_sweep,
    verify,
)
from qostbc.modem import modulation
from oracles import channel_gram


def small_config(**kw):
    base = dict(
        k=2,
        n_t=2,
        n_r=1,
        modulation="bpsk",
        esno_db=(3.0, 6.0),
        trials=6000,
        target_errors=150,
        seed=99,
        batch=1024,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_bad_k(self):
        for k in (6, 1):
            with pytest.raises(ConfigError, match="power of two"):
                small_config(k=k, n_t=1)

    def test_rejects_nt_over_k(self):
        with pytest.raises(ConfigError):
            small_config(n_t=3)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ConfigError):
            small_config(esno_db=())

    def test_rejects_unknown_modulation(self):
        with pytest.raises(ConfigError):
            small_config(modulation="ask7")

    def test_rejects_unknown_channel(self):
        with pytest.raises(ConfigError):
            small_config(channel="awgn7")

    def test_branch_stats_built_once(self, monkeypatch):
        # the config keeps the branches and the modulation it validated, and
        # the sweep and its analytic column reuse them; they stay out of
        # asdict, so out of the sidecar
        calls, mods = [], []
        real, real_mod = harness.branch_stats, harness.modulation

        def counted(*args):
            calls.append(args)
            return real(*args)

        def counted_mod(name):
            mods.append(name)
            return real_mod(name)

        monkeypatch.setattr(harness, "branch_stats", counted)
        monkeypatch.setattr(harness, "modulation", counted_mod)
        cfg = small_config(n_r=2, channel="mixed", trials=256, batch=128)
        run_sweep(cfg)
        assert calls == [(2, "mixed", "equipower")]
        assert mods == ["bpsk"]
        assert cfg.branches == tuple(
            fading.BranchStat(s.family, s.m, s.omega / 2) for s in real(2, "mixed", "equipower")
        )
        assert (cfg.mod.family, cfg.mod.order) == ("psk", 2)
        assert set(dataclasses.asdict(cfg)) == set(ExperimentConfig.__dataclass_fields__)
        assert "branches" not in ExperimentConfig.__dataclass_fields__
        assert "mod" not in ExperimentConfig.__dataclass_fields__

    @pytest.mark.parametrize("n_t", [1, 3, 4])
    def test_batches_and_reference_read_the_shared_branches(self, n_t, monkeypatch):
        # the batches draw the channel the receiver sees, and the analytic
        # reference integrates over the same one: config.branches itself,
        # whose equipower omegas share a total power of one.  The batches
        # draw the plan the config worked out once, which is the plan of
        # sample_gains(config.branches): the draw it would make
        drawn, integrated = [], []
        real_draw, real_ber = fading._draw_gains, analysis.bit_error_rate

        def draw_gains(plan, *args):
            drawn.append(plan)
            return real_draw(plan, *args)

        def bit_error_rate(mod, params, *args):
            integrated.append(params.branches)
            return real_ber(mod, params, *args)

        monkeypatch.setattr(fading, "_draw_gains", draw_gains)
        monkeypatch.setattr(analysis, "bit_error_rate", bit_error_rate)
        cfg = small_config(k=4, n_t=n_t, trials=256, batch=128, target_errors=10**9)
        run_sweep(cfg)
        assert len(drawn) == 4 and all(plan is cfg.gain_plan for plan in drawn)
        assert cfg.gain_plan == fading._gain_plan(cfg.branches)
        assert cfg.gain_plan[0] == n_t
        assert len(integrated) == 1 and integrated[0] is cfg.branches
        assert sum(s.omega for s in cfg.branches) == pytest.approx(1.0)


class TestBranchStats:
    def test_equipower(self):
        stats = branch_stats(3, "rayleigh", "equipower")
        assert [s.omega for s in stats] == [1.0, 1.0, 1.0]
        assert all(s.family == "rayleigh" for s in stats)

    @pytest.mark.parametrize("n_t", [1, 3, 4096])
    def test_equal_branches_are_one_object(self, n_t):
        for stats in (branch_stats(n_t, "rice:m=2", "equipower"), _shared_branches(n_t, "rice:m=2", "equipower")):
            assert len(stats) == n_t and all(s is stats[0] for s in stats)
        assert _shared_branches(n_t, "rice:m=2", "equipower")[0] == fading.BranchStat("rice", 2.0, 1.0 / n_t)
        for channel, profile in (("rayleigh", "linear:pmax=2"), ("mixed", "equipower")):
            if n_t > 1 or channel != "mixed":
                shared = _shared_branches(n_t, channel, profile)
                assert len({id(s) for s in shared}) == n_t
                assert list(shared) == [fading.BranchStat(s.family, s.m, s.omega / n_t)
                                        for s in branch_stats(n_t, channel, profile)]

    @pytest.mark.parametrize("profile", ["linear", "linear:pmax=9", "LINEAR:pmax=2"])
    def test_mixed_takes_no_profile_but_equipower(self, profile):
        # the mixed channel sets its own powers; a profile was silently dropped
        with pytest.raises(ValueError, match="argument --profile: channel 'mixed'"):
            branch_stats(4, "mixed", profile)
        with pytest.raises(ConfigError, match="--profile"):
            small_config(channel="mixed", profile=profile)
        assert branch_stats(4, "mixed", "equipower") == branch_stats(4, "mixed", " Equipower ")

    def test_linear(self):
        stats = branch_stats(3, "rice:m=2", "linear:pmax=2")
        np.testing.assert_allclose([s.omega for s in stats], [0.5, 1.0, 1.5])
        assert all(s.family == "rice" and s.m == 2.0 for s in stats)

    def test_mixed(self):
        stats = branch_stats(8, "mixed", "equipower")
        ms = [s.m for s in stats]
        oms = [s.omega for s in stats]
        assert ms[0] == 0.5 and ms[-1] == 4.0
        assert all(np.diff(ms) > 0) and all(np.diff(oms) < 0)
        assert sum(oms) == pytest.approx(1.0)
        assert stats[0].family == "hoyt" and stats[-1].family == "rice"


class TestRunSweep:
    def test_deterministic_payload(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.esno_db, ra.ber_sim, ra.ber_analytic, ra.trials, ra.bit_errors) == (
                rb.esno_db, rb.ber_sim, rb.ber_analytic, rb.trials, rb.bit_errors
            )

    def test_seed_changes_outcome(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config(seed=100))
        assert any(ra.bit_errors != rb.bit_errors for ra, rb in zip(a.rows, b.rows))

    def test_worker_invariance(self):
        a = run_sweep(small_config(trials=20000, target_errors=400))
        b = run_sweep(small_config(trials=20000, target_errors=400, workers=3))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.bit_errors == rb.bit_errors
            assert ra.trials == rb.trials

    def test_noiseless_smoke(self):
        cfg = small_config(esno_db=(float("inf"),), trials=256, target_errors=1)
        res = run_sweep(cfg)
        assert res.rows[0].ber_sim == 0.0

    def test_stop_rule(self):
        res = run_sweep(small_config(esno_db=(0.0,), trials=50_000, target_errors=50, batch=500))
        row = res.rows[0]
        assert row.bit_errors >= 50
        assert row.trials < 50_000  # stopped early
        assert row.trials % 500 == 0

    def test_csv_shape(self):
        res = run_sweep(small_config())
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 6

    def test_ber_normalisation(self):
        res = run_sweep(small_config(modulation="qpsk"))
        row = res.rows[0]
        assert row.ber_sim == row.bit_errors / (row.trials * 2 * 2)

    @pytest.mark.parametrize("mod", ["qam16", "qam64"])
    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_noiseless_qam_decodes_exactly(self, mod, k):
        # QAM decisions use the amplitude, so the decoder must see the
        # power-shared channel gains that scale the transmission
        cfg = small_config(k=k, n_t=k, modulation=mod)
        errors, _ = harness._sim_batch(cfg, 0.0, 0, 0, 512)
        assert errors == 0

    def test_gain_transforms_formed_once_per_batch(self, monkeypatch):
        # the forward model and the decoder share one transform of the gains
        calls = []

        def counted(gains, k, **kwargs):
            calls.append(len(gains))
            return real(gains, k, **kwargs)

        real = channels._gain_transforms
        for module in (channels, harness):
            monkeypatch.setattr(module, "_gain_transforms", counted)
        cfg = small_config(k=8, n_t=6, n_r=2, modulation="qpsk")
        errors, _ = harness._sim_batch(cfg, 0.0, 0, 0, 64)
        assert errors == 0
        assert calls == [64]

    def test_gain_transforms_of_the_wrong_shape_rejected(self):
        rng = np.random.default_rng(31)
        gains = rng.standard_normal((4, 2, 3)) + 0j
        g = channels._gain_transforms(gains, 8)
        for bad in (g[:1], g[:, :, :3], g[..., :2]):
            with pytest.raises(ValueError):
                channels.received_blocks(np.ones((4, 8)), gains, transforms=bad)
            with pytest.raises(ValueError):
                decode_batch(np.ones((4, 8, 2)), gains, transforms=bad)

    @pytest.mark.parametrize(
        "params,counts",
        [
            (dict(k=2, n_t=2, n_r=2, modulation="psk8", channel="mixed", trials=4096,
                  batch=1024), [6373, 1200, 4]),
            (dict(k=16, n_t=13, n_r=2, modulation="qam16", channel="mixed", trials=1024,
                  batch=256, workers=2), [28557, 18263, 3681]),
            (dict(k=128, n_t=96, n_r=1, modulation="qpsk", channel="rayleigh", trials=64,
                  batch=32), [3875, 226, 0]),
            # a shorter last batch
            (dict(k=2, n_t=2, n_r=2, modulation="psk8", channel="mixed", trials=3000,
                  batch=1024), [4619, 888, 2]),
            (dict(k=16, n_t=13, n_r=2, modulation="qam16", channel="mixed", trials=700,
                  batch=256, workers=2), [19618, 12553, 2471]),
        ],
        ids=["k2-psk8-mixed", "k16-nt13-qam16-mixed", "k128-nt96-qpsk", "k2-ragged",
             "k16-ragged-2-workers"],
    )
    def test_golden_bit_errors(self, params, counts):
        # fixed-seed counts of the encode/fade/decode/demap chain; a
        # refactor that keeps the arithmetic must reproduce them exactly
        cfg = ExperimentConfig(esno_db=(0.0, 10.0, 20.0), target_errors=10**9, seed=77, **params)
        assert [row.bit_errors for row in run_sweep(cfg).rows] == counts

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # one worker runs every batch on the calling thread
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep must start no thread pool")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        cfg = ExperimentConfig(k=2, n_t=2, n_r=2, modulation="psk8", channel="mixed", trials=3000,
                               batch=1024, esno_db=(0.0, 10.0, 20.0), target_errors=10**9, seed=77)
        assert [row.bit_errors for row in run_sweep(cfg).rows] == [4619, 888, 2]

    def test_one_pool_per_sweep_with_the_caller_as_slot_zero(self, monkeypatch):
        # two workers: one pool thread for the whole sweep, and every even
        # batch of every point runs on the calling thread
        pools, ran = [], []
        real = harness._sim_batch

        class Recording(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append((args, kwargs))
                super().__init__(*args, **kwargs)

        def recording(*args):
            ran.append((args[2], args[3], threading.get_ident()))
            return real(*args)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(harness, "_sim_batch", recording)
        cfg = small_config(esno_db=(0.0, 3.0, 6.0), trials=4 * 256, batch=256,
                           target_errors=10**9, workers=2)
        run_sweep(cfg)
        assert pools == [((), {"max_workers": 1})]
        assert sorted((i, j) for i, j, _ in ran) == [(i, j) for i in range(3) for j in range(4)]
        caller = threading.get_ident()
        assert all((thread == caller) == (j % 2 == 0) for _, j, thread in ran)

    def test_at_most_workers_batches_run_and_none_after_their_point(self, monkeypatch):
        # every point stops on its first batch, while the pool runs the
        # round's second and third; the second runs longest, so the next
        # point would start its batches beside the unused ones unless the
        # point waits for its whole round
        lock = threading.Lock()
        running, most, mixed, started = [], [0], [], []
        real = harness._sim_batch

        def counted(*args):
            point = args[2]
            with lock:
                mixed.extend(p for p in running if p != point)
                running.append(point)
                started.append(point)
                most[0] = max(most[0], len(running))
            try:
                time.sleep(0.05 if args[3] % 3 == 1 else 0.0)
                return real(*args)
            finally:
                with lock:
                    running.remove(point)

        monkeypatch.setattr(harness, "_sim_batch", counted)
        cfg = small_config(esno_db=(0.0, 1.0, 2.0, 3.0), trials=20 * 64, batch=64,
                           target_errors=1, workers=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rows = run_sweep(cfg).rows
        finally:
            sys.setswitchinterval(interval)
        with lock:
            left, seen = list(running), len(started)
        time.sleep(0.1)
        assert left == [] and len(started) == seen  # none runs or starts after the sweep
        assert mixed == []
        assert 2 <= most[0] <= cfg.workers
        assert [r.trials for r in rows] == [64] * 4

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_point_runs_the_rounds_up_to_its_stop(self, workers, monkeypatch):
        # point i reports its one error at batch stops[i], or never, so it
        # runs every batch of rounds 0 .. stop // workers, capped by the plan
        # of ten full batches and a short one, and no batch of a later round;
        # the pool batches sleep, so a batch started early would show
        stops = [0, 1, 2, 3, 4, 5, 8, 9, 10, None]
        lock = threading.Lock()
        ran = []

        def fake(config, n0, snr_idx, batch_idx, nblocks):
            with lock:
                ran.append((snr_idx, batch_idx, nblocks))
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.002)
            return int(batch_idx == stops[snr_idx]), 1.0

        monkeypatch.setattr(harness, "_sim_batch", fake)
        cfg = small_config(esno_db=tuple(range(len(stops))), trials=10 * 64 + 16, batch=64,
                           target_errors=1, workers=workers)
        rows = run_sweep(cfg).rows
        want = []
        for i, stop in enumerate(stops):
            last = 10 if stop is None else min(10, stop // workers * workers + workers - 1)
            want += [(i, j, 64 if j < 10 else 16) for j in range(last + 1)]
        assert sorted(ran) == want
        assert [r.trials for r in rows] == [64 * (s + 1) for s in stops[:-2]] + [cfg.trials] * 2
        assert [r.bit_errors for r in rows] == [1] * (len(stops) - 1) + [0]

    def test_no_thread_outlives_the_sweep(self, monkeypatch):
        before = threading.active_count()
        cfg = small_config(esno_db=(0.0, 6.0), trials=8 * 64, batch=64, target_errors=10**9,
                           workers=3)
        run_sweep(cfg)
        assert threading.active_count() == before
        real = harness._sim_batch

        def failing(*args):
            if (args[2], args[3]) == (1, 4):  # a round's second batch, run by the pool
                raise RuntimeError("batch failed")
            return real(*args)

        monkeypatch.setattr(harness, "_sim_batch", failing)
        with pytest.raises(RuntimeError, match="batch failed"):
            run_sweep(cfg)
        assert threading.active_count() == before

    @pytest.mark.parametrize("params,multiple", [
        (dict(k=2, n_t=2, n_r=2, modulation="psk8", channel="mixed", batch=2048), 1.05),
        (dict(k=16, n_t=13, n_r=2, modulation="qam16", channel="mixed", batch=256), 1.25),
    ], ids=["k2-psk8-mixed", "k16-nt13-qam16-mixed"])
    def test_batch_peak_is_bounded_by_its_stage_results(self, params, multiple):
        # a warm batch's traced peak stays below a multiple of the arrays
        # its stages return, since each is freed once dead: 0.99 of them at
        # K=2 and 1.18 at K=16, where keeping the decoder's combiner terms,
        # its |g|^2 planes or the batch's symbols, gains and blocks alive
        # read 1.08 to 1.21 and 1.26 to 1.40
        cfg = ExperimentConfig(esno_db=(5.0,), **params)
        harness._sim_batch(cfg, 0.3, 0, 0, cfg.batch)  # caches the basis
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = harness._sim_batch(cfg, 0.3, 0, 1, cfg.batch)
            rise = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        b, k, n_r, n_t = cfg.batch, cfg.k, cfg.n_r, cfg.n_t
        returned = (
            2 * b * k * cfg.mod.bits_per_symbol  # drawn and demapped bits, uint8
            + 16 * b * k  # symbols
            + 16 * b * n_r  # one branch of sample_gain
            + 16 * b * n_r * n_t  # gains
            + 16 * b * n_r * k  # gain transforms, (2, n_r, B, K/2)
            + 2 * 16 * b * k * n_r  # received and noisy blocks
            + 16 * b * k + 8 * b * k // 2  # estimates and eigenvalues
        )
        assert rise < multiple * returned, (rise, returned)
        assert got == harness._sim_batch(cfg, 0.3, 0, 1, cfg.batch)

    def test_conditioning_is_worker_invariant(self):
        # the error target stops each point after a batch or two, so with 2
        # and 3 workers the rest of the last round is drawn and not used
        cfg = dict(k=4, n_t=4, modulation="qpsk", esno_db=(0.0, 10.0), trials=20 * 64,
                   target_errors=100, batch=64)
        runs = [run_sweep(small_config(workers=w, **cfg)) for w in (1, 2, 3)]
        ratios = [[row.min_eigenvalue_ratio for row in res.rows] for res in runs]
        assert ratios[0] == ratios[1] == ratios[2]
        assert [row.trials for row in runs[0].rows] == [row.trials for row in runs[2].rows]
        assert all(0.0 < r < 1.0 for r in ratios[0])

    def test_conditioning_is_smallest_block_ratio(self, monkeypatch):
        # record every channel the decoder sees and take lambda_min /
        # lambda_max of each block's Gram with a dense eigensolver
        seen = []

        def recording(received, gains, **kwargs):
            seen.append(gains.copy())
            return decode_batch(received, gains, **kwargs)

        monkeypatch.setattr(harness, "decode_batch", recording)
        cfg = small_config(k=8, n_t=6, n_r=2, modulation="qpsk", esno_db=(5.0,), trials=300,
                           target_errors=10**9, batch=128)
        row = run_sweep(cfg).rows[0]
        assert [len(g) for g in seen] == [128, 128, 44]
        eig = np.linalg.eigvalsh(channel_gram(np.concatenate(seen), 8))
        want = (eig[:, 0] / eig[:, -1]).min()
        assert row.min_eigenvalue_ratio == pytest.approx(want, rel=1e-9)
        # K=2 has one eigenvalue per block
        assert run_sweep(small_config()).rows[0].min_eigenvalue_ratio == 1.0

    def test_alamouti_brackets_analytic(self):
        cfg = small_config(esno_db=(6.0,), trials=300_000, target_errors=600, batch=8192)
        row = run_sweep(cfg).rows[0]
        nbits = row.trials * 2
        sigma = np.sqrt(row.ber_analytic * (1 - row.ber_analytic) / nbits)
        assert abs(row.ber_sim - row.ber_analytic) <= 3.0 * sigma


def flip_one_minor_sign(indices, rng, k):
    """``channels._minor_indices(k)`` with one random entry of one minor
    negated, ``+h_j <-> -h_j``."""
    bad = [index.copy() for index in indices]
    index = bad[int(rng.integers(2))]
    idx = tuple(int(rng.integers(n)) for n in index.shape)
    index[idx] = (index[idx] + k) % (2 * k)
    return tuple(bad)


class TestVerify:
    def test_small_suite_passes(self):
        report = verify(32)
        assert report.ok
        names = {c.name.split("(")[0] for c in report.checks}
        assert {
            "permutation-sets",
            "received-block-identity",
            "code-gram-blocks",
            "reduction-block-diagonal",
            "round-trip",
        } <= names

    def test_every_k_certified(self):
        # round trips and the matched-filter check run at every K, K=512 too
        report = verify(512)
        assert report.ok
        ks = [2**i for i in range(1, 10)]
        for name in ("walsh-matched-filter", "round-trip"):
            assert sorted({c.k for c in report.checks if c.name.startswith(name)}) == ks

    def test_report_text(self):
        text = verify(8).to_text()
        assert "all passed" in text
        assert "pass  " in text

    @pytest.mark.parametrize("seed", [0, 5])
    def test_report_is_a_prefix_in_k(self, seed):
        # every K draws from one stream in K order, so a larger k_max only
        # appends checks: one run at a large K covers each smaller one
        small = [c.line() for c in verify(16, seed=seed).checks]
        big = verify(64, seed=seed).to_text().splitlines()
        assert len(big) - 1 > len(small)
        assert big[: len(small)] == small

    def test_fault_injection(self, monkeypatch):
        # negate one entry of the K=8 code and expect the suite to fail,
        # naming the broken checks and size
        real = codes._code_indices

        def corrupted(k, n_t):
            table = real(k, n_t)
            if k == 8 and n_t > 5:
                table[3, 5] = (table[3, 5] + 2 * k) % (4 * k)
            return table

        monkeypatch.setattr(codes, "_code_indices", corrupted)
        report = verify(8)
        assert not report.ok
        failed = {c.name for c in report.checks if not c.passed and c.k == 8}
        assert {"received-block-identity", "code-gram-blocks"} <= failed
        assert all(c.passed for c in report.checks if c.k != 8)

    def test_passes_on_seed_the_float_check_failed(self):
        # a 1e-10 float tolerance on the reduction residuals failed here at
        # K=256; the exact check counts zero nonzero off-block entries
        report = verify(256, seed=3001)
        assert report.ok
        reduction = [c for c in report.checks if c.name == "reduction-block-diagonal"]
        assert [c.k for c in reduction] == [2**i for i in range(2, 9)]
        assert all(c.value == 0 and c.tol == 0 for c in reduction)

    def test_structural_checks_are_exact(self):
        # the longest float64 sum, an entry of the matched filter c, has K
        # terms h r, each with |Re|, |Im| at most 2 EXACT_PART_MAX times an
        # entry of r = C h, itself K products below 2 EXACT_PART_MAX^2: under
        # 2^50 up to RESIDUE_K_MAX, so exact in float64
        k, e = harness.RESIDUE_K_MAX, harness.EXACT_PART_MAX
        assert k * (2 * e) * k * (2 * e**2) < 2**50
        # the right side of the matched-filter identity: K/2 terms of lambda
        # modulo the prime times an entry of V^H s, K/2 terms below e
        assert (k // 2) * harness.RESIDUE_PRIME * (k // 2) * e < 2**50
        for seed in range(5):
            checks = verify(64, seed=seed).checks
            exact = [c for c in checks if not c.name.startswith("round-trip")]
            assert {c.name.split("(")[0] for c in exact} == {
                "permutation-sets", "received-block-identity", "code-gram-blocks",
                "reduction-block-diagonal", "walsh-matched-filter", "walsh-forward-model"}
            assert all(c.value == 0 and c.tol == 0 and c.passed for c in exact), [
                c.line() for c in exact if c.value or c.tol]

    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_minor_sign_flip_detected(self, k, monkeypatch):
        # flipping the sign of one minor entry at one K breaks the received
        # block and the matched filter's product there, and nowhere else
        real_indices = channels._minor_indices
        real = real_indices(k)
        rng = np.random.default_rng(100 + k)
        for _ in range(3):
            bad = flip_one_minor_sign(real, rng, k)
            monkeypatch.setattr(
                channels, "_minor_indices",
                lambda kk, bad=bad: bad if kk == k else real_indices(kk),
            )
            report = verify(32, seed=k)
            failed = {c.name for c in report.checks if not c.passed and c.k == k}
            assert {"received-block-identity", "walsh-matched-filter"} <= failed
            assert all(c.passed for c in report.checks if c.k != k)

    @pytest.mark.parametrize("k", [2, 16, 256])
    def test_wrong_eigenvalue_detected(self, k, monkeypatch):
        # one eigenvalue the decoder returns, raised by 1 at one K, breaks
        # the matched-filter identity there and nowhere else; the round
        # trips do not read the eigenvalues
        real = harness.decode_batch

        def raised(received, gains):
            est, lam = real(received, gains)
            if received.shape[1] == k:
                lam = lam.copy()
                lam[:, -1] += 1
            return est, lam

        monkeypatch.setattr(harness, "decode_batch", raised)
        report = verify(256)
        failed = {(c.name, c.k) for c in report.checks if not c.passed}
        assert failed == {("walsh-matched-filter", k)}, failed

    def test_one_batch_of_round_trips_per_k(self, monkeypatch):
        # per K, decode_batch runs for the matched filter's lambda and for
        # the round trips, and received_blocks for the forward model and the
        # round trips: at most two calls of each, whatever the n_t and n_r
        calls = {"decode": [], "forward": []}

        def counting(key, real):
            def fake(blocks, gains):
                calls[key].append(blocks.shape[1])
                return real(blocks, gains)
            return fake

        monkeypatch.setattr(harness, "decode_batch", counting("decode", harness.decode_batch))
        monkeypatch.setattr(harness, "received_blocks", counting("forward", harness.received_blocks))
        report = verify(256)
        assert report.ok
        ks = [2**i for i in range(1, 9)]
        for key, seen in calls.items():
            assert sorted(set(seen)) == ks, key
            assert max(seen.count(k) for k in ks) <= 2, (key, seen)
        for k in ks:
            n_ts = sorted({k, k - 1, min(3, k)})
            trips = [c for c in report.checks if c.k == k and c.name.startswith("round-trip")]
            assert len(trips) == 3 * len(n_ts) == (6 if k <= 4 else 9)
            assert [c.name for c in trips] == [
                f"round-trip(nt={n_t},nr={n_r})" for n_t in n_ts for n_r in (1, 2, 4)]
            assert all(c.tol == harness.ROUNDTRIP_TOL for c in trips)
            assert all(type(c.value) is float and type(c.passed) is bool for c in trips)

    def test_keeps_no_tables(self):
        # no code or minor table outlives the call: a K=1024 table is 8 MB
        tracemalloc.start()
        try:
            verify(1024)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20, held

    def test_rejects_k_beyond_residue_bound(self):
        with pytest.raises(ConfigError, match="4096"):
            verify(2 * harness.RESIDUE_K_MAX)


class TestReductionResiduals:
    @pytest.mark.parametrize("k", [4, 8, 64, 256])
    def test_single_sign_flip_detected(self, k, monkeypatch):
        # flipping the sign of one minor entry breaks the block split at
        # some order, and the exact check counts the broken entries
        real = channels._minor_indices(k)
        rng = np.random.default_rng(k)
        for _ in range(6):
            bad = flip_one_minor_sign(real, rng, k)
            monkeypatch.setattr(channels, "_minor_indices", lambda kk, bad=bad: bad)
            res = harness.reduction_residuals(k, rng)
            assert any(count for _, count in res), (k, res)

    @pytest.mark.parametrize("k", [128, 256])
    def test_zero_on_every_seed(self, k):
        for seed in range(100):
            res = harness.reduction_residuals(k, np.random.default_rng(seed))
            assert all(count == 0 for _, count in res), (k, seed, res)

    def test_residue_bounds(self):
        p = harness.RESIDUE_PRIME

        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        # the largest prime below 2^20
        assert is_prime(p) and p < 2**20
        assert not any(is_prime(n) for n in range(p + 1, 2**20))
        # the first product sums 2K terms of magnitude below p^2 in float64
        assert 2 * harness.RESIDUE_K_MAX * (p - 1) ** 2 < 2**53
        with pytest.raises(ValueError):
            harness.reduction_residuals(2 * harness.RESIDUE_K_MAX, np.random.default_rng(0))

    def test_k2_has_no_orders_and_draws_nothing(self):
        rng = np.random.default_rng(5)
        assert harness.reduction_residuals(2, rng) == []
        assert rng.random() == np.random.default_rng(5).random()

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_float_products_match_int64(self, n):
        # float64 products of residues, reduced, equal int64 products then %
        p = harness.RESIDUE_PRIME
        rng = np.random.default_rng(n)
        for low in (0, -p + 1):  # reduced residues, and the signed first product
            a, b = rng.integers(low, p, size=(2, n, n))
            got = harness._mod_prime(a.astype(float) @ b.astype(float))
            np.testing.assert_array_equal(got, (a @ b) % p)

    def test_float_products_exact_at_the_bound(self):
        # every entry +-(p - 1), summed over 2 * RESIDUE_K_MAX terms
        p = harness.RESIDUE_PRIME
        n = 2 * harness.RESIDUE_K_MAX
        a = np.full((1, n), p - 1.0)
        for sign in (1, -1):
            b = np.full((n, 1), sign * (p - 1.0))
            assert (a @ b)[0, 0] == sign * n * (p - 1) ** 2
            assert harness._mod_prime(a @ b)[0, 0] == sign * n * (p - 1) ** 2 % p

    def test_mod_prime_exact(self):
        # up to the helper's stated domain, 2^53 - 2^21, and at the largest
        # sum the residue products can reach
        p = harness.RESIDUE_PRIME
        top = 2**53 - 2**21
        big = 2 * harness.RESIDUE_K_MAX * (p - 1) ** 2
        values = [0, 1, p - 1, p, p + 1, 2 * p, 7 * p, 7 * p - 1, big, big - 1,
                  top, top - 1, top - p, (top // p) * p, (top // p) * p - 1]
        # -(n p + 1) near the top is one whose quotient rounds up
        values += [-v for v in values] + [-((top // p) * p + 1)]
        got = harness._mod_prime(np.array(values, dtype=float))
        assert [int(g) for g in got] == [v % p for v in values]
        # both parts of a complex array, in place
        z = np.array(values, dtype=float) + 1j * np.array(values[::-1], dtype=float)
        got = harness._mod_prime(z)
        assert got is z
        assert [int(g) for g in got.real] == [v % p for v in values]
        assert [int(g) for g in got.imag] == [v % p for v in values[::-1]]


class TestCapacitySweep:
    def test_envelope_properties(self):
        names, rows = capacity_sweep(
            np.arange(-5.0, 31.0, 5.0), n_t=2, n_r=2, mods=("psk2", "psk4", "qam16")
        )
        assert names == ["psk2", "psk4", "qam16"]
        table = np.array(rows)
        # each modulation monotone non-decreasing, envelope too
        for col in range(1, table.shape[1]):
            assert np.all(np.diff(table[:, col]) >= -1e-12)
        # saturation at bits-per-symbol
        assert table[-1, 1] == pytest.approx(1.0, abs=1e-6)
        assert table[-1, 2] == pytest.approx(2.0, abs=1e-6)
        assert table[-1, 3] == pytest.approx(4.0, abs=1e-3)
        # envelope is the running maximum
        np.testing.assert_allclose(table[:, -1], table[:, 1:-1].max(axis=1))

    def test_one_pass_gives_each_modulations_ber(self, monkeypatch):
        # the 116 integrals of the eight modulations in one call, each rate
        # from the same BER as bit_error_rate's own call
        esno_db = np.arange(0.0, 31.0, 2.0)
        calls, real = [], analysis.mgf_integral

        def counting(delta, g, *args):
            calls.append(len(delta))
            return real(delta, g, *args)

        monkeypatch.setattr(analysis, "mgf_integral", counting)
        names, rows = capacity_sweep(esno_db, n_t=16, n_r=1, channel="mixed", rho=0.75)
        assert calls == [116]
        params = analysis.BerParams(n_t=16, n_r=1, branches=_shared_branches(16, "mixed", "equipower"),
                                    rho=0.75)
        for j, name in enumerate(names, start=1):
            mod = modulation(name)
            ber = np.clip(analysis.bit_error_rate(mod, params, esno_db), 0.0, 0.5)
            want = [analysis.capacity(mod.bits_per_symbol, 0.75, float(p)) for p in ber]
            np.testing.assert_array_equal([row[j] for row in rows], want)


class TestCli:
    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--K", "8"]) == 0
        out = capsys.readouterr().out
        assert "all passed" in out

    def test_analyze_csv(self, capsys):
        rc = main([
            "analyze", "--mod", "bpsk", "--nt", "1",
            "--esno-start", "0", "--esno-stop", "10", "--esno-step", "5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "esno_db,ber"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5 * (1 - 1 / np.sqrt(2)), rel=1e-6)
        # one point at an Es/N0 so large that a tolerance of 1e-9 dB added to
        # it would vanish
        assert main(["analyze", "--mod", "qpsk", "--nt", "2",
                     "--esno-start", "3e7", "--esno-stop", "3e7"]) == 0
        assert capsys.readouterr().out.splitlines() == ["esno_db,ber", "30000000,0"]

    def test_analyze_m_list(self, capsys):
        rc = main([
            "analyze", "--mod", "psk8", "--nt", "2", "--channel", "rice:m=2",
            "--m-list", "0.7,2.5", "--esno-start", "5", "--esno-stop", "5",
            "--esno-step", "1",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_simulate_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "simulate", "--K", "2", "--mod", "bpsk",
            "--esno-start", "4", "--esno-stop", "4", "--esno-step", "1",
            "--trials", "2000", "--target-errors", "50", "--seed", "5",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith(CSV_HEADER)
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sidecar["k"] == 2 and sidecar["seed"] == 5
        assert set(ExperimentConfig.__dataclass_fields__) <= set(sidecar)
        assert sidecar["qostbc_version"] == qostbc.__version__
        assert sidecar["numpy_version"] == np.__version__
        assert sidecar["python_version"] == platform.python_version()
        assert sidecar["ber_analytic"].startswith("full-diversity ML bound")

    def test_simulate_sidecar_records_conditioning(self, tmp_path, capsys):
        argv = ["simulate", "--K", "4", "--mod", "qpsk",
                "--esno-start", "0", "--esno-stop", "10", "--esno-step", "5",
                "--trials", "512", "--target-errors", "100", "--batch", "64", "--seed", "8"]
        sidecars = []
        for workers in ("1", "3"):
            out = tmp_path / f"sweep{workers}.csv"
            assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
            assert out.read_text().splitlines()[0] == CSV_HEADER
            sidecars.append(json.loads((tmp_path / f"sweep{workers}.csv.json").read_text()))
        ratios = sidecars[0]["min_eigenvalue_ratio"]
        assert len(ratios) == 3 and all(0.0 < r < 1.0 for r in ratios)
        assert sidecars[1]["min_eigenvalue_ratio"] == ratios

    def test_capacity_command(self, capsys):
        rc = main([
            "capacity", "--nt", "2", "--nr", "1", "--mods", "psk2,qam16",
            "--esno-start", "10", "--esno-stop", "10", "--esno-step", "1",
        ])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "esno_db,psk2,qam16,envelope"

    def test_config_error_exit_code(self, capsys):
        assert main(["simulate", "--K", "3", "--mod", "bpsk"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--K", "4", "--esno-step", "0"],
            ["simulate", "--K", "4", "--esno-step", "-2"],
            ["analyze", "--mod", "qpsk", "--nt", "0"],
            ["capacity", "--nt", "2", "--mods", "psk0"],
            ["verify", "--K", "3"],
            ["verify", "--K", "8192"],
            ["capacity", "--nt", "2", "--esno-start", "0", "--esno-stop", "1e9",
             "--esno-step", "1e-9"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--esno-start", "nan"],
            ["capacity", "--nt", "2", "--esno-stop", "inf"],
            ["simulate", "--K", "4", "--esno-step", "inf"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--points", "5"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--m-list", "nan,1"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--channel", "rice:m=inf"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--omega-list", "1,inf"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--profile", "linear:pmax=inf"],
            ["simulate", "--K", "4", "--channel", "nakagami:m=inf"],
            ["simulate", "--K", "1"],
            ["simulate", "--K", "8192"],
            ["simulate", "--K", "2", "--workers", "65"],
            ["simulate", "--K", "2", "--out", "/nonexistent/x.csv"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--out", "/nonexistent/x.csv"],
            ["capacity", "--nt", "2", "--out", "/nonexistent/x.csv"],
        ],
        ids=" ".join,
    )
    def test_invalid_input_exit_code(self, argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag with its usage text
            assert exc.code == 2
            assert "error: unrecognized arguments" in capsys.readouterr().err
            return
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert all(flag in captured.err for flag in argv if flag.startswith("--esno"))
        if "--out" in argv:
            assert argv[argv.index("--out") + 1] in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            "",
            "frobnicate",
            "simulate --K abc",
            "simulate --K 4 --mod psk3",
            "simulate --K 4 --channel rice:m=0.5",
            "simulate --K 4 --profile linear:pmax=nan",
            "simulate --K 4 --nt 5",
            "simulate --K 4 --nr 0",
            "simulate --K 4 --batch 0",
            "simulate --K 4 --target-errors 0",
            "simulate --K 4 --seed -1",
            "simulate --K 4 --esno-start 10 --esno-stop 0",
            "simulate --K 2 --workers 0",
            "analyze --mod qpsk --nt 2 --m-list 1,2,3",
            "analyze --mod qpsk --nt 2 --m-list a,b",
            "analyze --mod qam8 --nt 2",
            "capacity --nt 2 --mods qpsk,foo",
            "capacity --nt 2 --channel hoyt:m=0.3",
            "analyze --mod qpsk --nt 2 --rho 0",
            "verify --K 4 --seed -1",
            "analyze --mod qpsk --nt 2 --omega-list 1,b",
            "simulate --K 4 --channel rice:m=x",
            "simulate --K 2 --trials 4 --batch 4 --esno-start -4000 --esno-stop -4000",
            "analyze --mod qpsk --nt 4097",
            "capacity --nt 4097",
            "simulate --K 4 --seed abc",
            "analyze --mod qpsk --nt 2 --omega-list 1",
            "analyze --mod qpsk --nt 2 --channel rice:k=2",
            "analyze --mod qpsk --nt 2 --profile linear:x=2",
            "analyze --mod qpsk --nt 2 --channel mixed:m=2",
            "analyze --mod qpsk --nt 2 --profile equipower:pmax=9",
            "simulate --K 2 --channel mixed --profile linear:pmax=9",
            "analyze --mod qpsk --nt 2 --channel mixed --profile linear:pmax=9",
            "capacity --nt 2 --channel mixed --profile linear",
        ],
    )
    def test_invalid_argv_exits_2_with_a_message(self, argv, monkeypatch, capsys):
        # argparse's rejections and values the program rejects itself, each
        # before a sweep starts; test_invalid_input_exit_code has more
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "run_sweep", no_sweep)
        try:
            rc = main(argv.split())
        except SystemExit as exc:  # argparse's own rejections
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        flag = self.NAMED.get(argv)
        assert flag is None or f"argument {flag}:" in captured.err

    # argv whose message names the flag where numpy's or float()'s would not
    NAMED = {
        "simulate --K 4 --seed -1": "--seed",
        "verify --K 4 --seed -1": "--seed",
        "analyze --mod qpsk --nt 2 --m-list a,b": "--m-list",
        "analyze --mod qpsk --nt 2 --omega-list 1,b": "--omega-list",
        "simulate --K 4 --channel rice:m=x": "--channel",
        "simulate --K 4 --seed abc": "--seed",
        "analyze --mod qpsk --nt 2 --channel rice:k=2": "--channel",
        "analyze --mod qpsk --nt 2 --profile linear:x=2": "--profile",
        "analyze --mod qpsk --nt 2 --channel mixed:m=2": "--channel",
        "analyze --mod qpsk --nt 2 --profile equipower:pmax=9": "--profile",
        "simulate --K 2 --channel mixed --profile linear:pmax=9": "--profile",
        "analyze --mod qpsk --nt 2 --channel mixed --profile linear:pmax=9": "--profile",
        "capacity --nt 2 --channel mixed --profile linear": "--profile",
    }

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the allocator setting is glibc's")
    def test_warm_sweep_takes_few_page_faults(self):
        # the CLI keeps freed batch memory in the process: without its
        # allocator setting, each batch of 2048 blocks at K=2 faulted in
        # about 160 pages anew (2560 in this sweep), and with it the whole
        # warm sweep took 0 to 8
        code = """
import contextlib, io, resource
from qostbc.cli import main
argv = ["simulate", "--K", "2", "--nr", "2", "--mod", "psk8", "--channel", "mixed",
        "--esno-start", "0", "--esno-stop", "0", "--batch", "2048", "--trials", "32768",
        "--target-errors", "1000000000"]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = os.path.dirname(os.path.dirname(qostbc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert int(out.stdout) < 256  # 16 batches

    def test_parser_is_built_once(self, monkeypatch):
        assert build_parser() is build_parser()
        # the --nt default is still K on every call
        seen = []
        real = harness.run_sweep

        def recording(config):
            seen.append(config.n_t)
            return real(config)

        monkeypatch.setattr(harness, "run_sweep", recording)
        for k in ("4", "2"):
            assert main(["simulate", "--K", k, "--trials", "1", "--esno-stop", "0"]) == 0
        assert seen == [4, 2]

    @pytest.mark.parametrize("command", [["analyze", "--mod", "qpsk"], ["capacity"]])
    @pytest.mark.parametrize("nt", ["0", "-1"])
    def test_nonpositive_nt_message(self, command, nt, capsys):
        assert main(command + ["--nt", nt]) == 2
        assert capsys.readouterr().err == "error: n_t must be >= 1\n"

    def test_simulate_checks_out_path_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "run_sweep", no_sweep)
        missing = tmp_path / "missing" / "x.csv"
        assert main(["simulate", "--K", "2", "--out", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not missing.parent.exists()

    def test_out_of_memory_exit_code(self, monkeypatch, capsys):
        # a sweep too large for memory exits 2 with one line, not a traceback
        def too_large(config):
            raise MemoryError("Unable to allocate 29.8 GiB for an array")

        monkeypatch.setattr(harness, "run_sweep", too_large)
        assert main(["simulate", "--K", "2", "--nr", "1000000000", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 29.8 GiB for an array\n"
        assert captured.out == ""

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        import qostbc.harness as hmod

        def broken(k_max, seed=0):
            from qostbc.harness import CheckResult, VerifyReport

            return VerifyReport((CheckResult("stub", 4, 1.0, 0.0),))

        monkeypatch.setattr(hmod, "verify", broken)
        assert main(["verify", "--K", "4"]) == 1
