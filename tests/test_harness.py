"""Harness tests: reproducibility, worker invariance, configuration
validation, the verification report, fault injection, capacity sweep
properties and the command-line front end."""

import json

import numpy as np
import pytest

import qostbc.harness as harness
from qostbc import build_mother, modulation, puncture
from qostbc.cli import main
from qostbc.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    branch_stats,
    capacity_sweep,
    run_sweep,
    verify,
)


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
        with pytest.raises(ConfigError):
            small_config(k=6)

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


class TestBranchStats:
    def test_equipower(self):
        stats = branch_stats(3, "rayleigh", "equipower")
        assert [s.omega for s in stats] == [1.0, 1.0, 1.0]
        assert all(s.family == "rayleigh" for s in stats)

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
        # power-shared channel gains / sqrt(n_t) that scale the transmission
        cfg = small_config(k=k, n_t=k, modulation=mod)
        stats = branch_stats(k, cfg.channel, cfg.profile)
        structure = puncture(build_mother(k), k)
        errors = harness._sim_batch(cfg, modulation(mod), structure, stats, 0.0, 0, 0, 512)
        assert errors == 0

    def test_alamouti_brackets_analytic(self):
        cfg = small_config(esno_db=(6.0,), trials=300_000, target_errors=600, batch=8192)
        row = run_sweep(cfg).rows[0]
        nbits = row.trials * 2
        sigma = np.sqrt(row.ber_analytic * (1 - row.ber_analytic) / nbits)
        assert abs(row.ber_sim - row.ber_analytic) <= 3.0 * sigma


class TestVerify:
    def test_small_suite_passes(self):
        report = verify(32)
        assert report.ok
        names = {c.name.split("(")[0] for c in report.checks}
        assert {
            "permutation-sets",
            "received-block-identity",
            "code-gram-blocks",
            "channel-quasi-orthogonality",
            "reduction-block-diagonal",
            "round-trip",
        } <= names

    def test_every_k_certified(self):
        # round trips and the fixed-basis check run at every K, K=512 too
        report = verify(512)
        assert report.ok
        ks = [2**i for i in range(1, 10)]
        for name in ("fixed-basis-diagonal", "round-trip"):
            assert sorted({c.k for c in report.checks if c.name.startswith(name)}) == ks

    def test_report_text(self):
        text = verify(8).to_text()
        assert "all passed" in text
        assert "pass  " in text

    def test_fault_injection(self, monkeypatch):
        # flip one sign inside the mother construction and expect the
        # suite to fail while naming the broken check and size
        import qostbc.codes as codes

        real = codes.build_mother

        def corrupted(k):
            st = real(k)
            if k == 8:
                sign = st.sign.copy()
                sign[3, 5] *= -1
                object.__setattr__(st, "sign", sign)
            return st

        monkeypatch.setattr(harness, "build_mother", corrupted)
        report = verify(8)
        assert not report.ok
        failed = [c for c in report.checks if not c.passed]
        assert any(c.k == 8 for c in failed)


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
            ["capacity", "--nt", "2", "--esno-start", "0", "--esno-stop", "1e9",
             "--esno-step", "1e-9"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--esno-start", "nan"],
            ["capacity", "--nt", "2", "--esno-stop", "inf"],
            ["simulate", "--K", "4", "--esno-step", "inf"],
            ["analyze", "--mod", "qpsk", "--nt", "2", "--points", "5"],
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

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        import qostbc.harness as hmod

        def broken(k_max, seed=0):
            from qostbc.harness import CheckResult, VerifyReport

            return VerifyReport((CheckResult("stub", 4, 1.0, 0.0, False),))

        monkeypatch.setattr(hmod, "verify", broken)
        assert main(["verify", "--K", "4"]) == 1
