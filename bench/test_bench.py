"""Tests of the benchmark's references, checks and tracer.

    python3 -m pytest bench
"""

import io
import contextlib
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from qostbc import analysis, cli  # noqa: E402
from qostbc.codes import build_mother, encode, puncture  # noqa: E402
from qostbc.decoder import decode_batch  # noqa: E402
from qostbc.fading import BranchStat  # noqa: E402


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_zf_reference_at_k2_is_alamouti_combining():
    # at K=2 the ZF noise per decision is N0/2 over the channel energy
    rng = np.random.default_rng(1)
    gains = crandn(rng, 200, 1, 2) / math.sqrt(2)
    sd, rho2 = reference.zf_decisions(gains, 2)
    energy = np.sum(np.abs(gains) ** 2, axis=(1, 2))
    np.testing.assert_allclose(sd, np.repeat(1 / np.sqrt(energy)[:, None], 4, axis=1), rtol=1e-12)
    off = rho2[:, ~np.eye(4, dtype=bool)]
    assert off.max() < 1e-20


@pytest.mark.parametrize("esno_db", [0.0, 10.0])
def test_zf_reference_at_k2_equals_psk_ber(esno_db):
    [point] = reference.zf_qpsk_stats(2, 2, 1, [esno_db], draws=40000, seed=2, chunk=5000)
    ber = point["mean"] / 4
    stderr = math.sqrt(point["var_between"] / point["draws"]) / 4
    # unit-power branches, the transmit power shared by the two antennas
    params = analysis.BerParams(n_t=2, n_r=1, branches=[BranchStat("rayleigh", 1.0, 0.5)] * 2)
    exact = analysis.psk_ber(4, params, esno_db)
    assert abs(ber - exact) <= 4 * stderr
    assert stderr < 0.02 * exact


def test_stored_k128_reference_is_reproducible():
    spec = reference.K128_SPEC
    with open(reference.K128_FILE) as fh:
        stored = json.load(fh)
    assert stored["spec"] == spec
    fresh = reference.zf_qpsk_stats(spec["k"], spec["n_t"], spec["n_r"], spec["esno_db"],
                                    draws=100, seed=7)
    for old, new in zip(stored["points"], fresh):
        stderr = math.sqrt(new["var_between"] / new["draws"])
        assert abs(old["mean"] - new["mean"]) <= 5 * stderr
        assert old["var_within"] == pytest.approx(new["var_within"], rel=0.3)


@pytest.mark.parametrize("k", [4, 16, 64])
def test_oracle_matches_decode_batch(k):
    rng = np.random.default_rng(k)
    n_r, n_t = 2, k - 1
    s = crandn(rng, 3, k)
    gains = crandn(rng, 3, n_r, n_t)
    tx = encode(puncture(build_mother(k), n_t), s)
    rx = np.einsum("bka,bra->bkr", tx, gains) + 0.1 * crandn(rng, 3, k, n_r)
    est = decode_batch(rx, gains, k)[0]
    want = reference.lstsq_decode(rx, gains, k)
    for b in range(3):
        assert checks.oracle(est[b], want[b], 1e-9)


@pytest.mark.parametrize("esno_db", [0.0, 10.0, 20.0])
def test_quadrature_matches_rayleigh_closed_form(esno_db):
    mgf = reference.Diversity(reference.equal_branches(4), 2, esno_db, shared=False)
    exact = reference.rayleigh_qpsk_closed_form(8, 10 ** (esno_db / 10))
    assert reference.ber("qpsk", mgf) == pytest.approx(exact, rel=1e-10)


def test_qam_reference_matches_textbook_awgn_limit():
    # a branch with no fading spread is AWGN: 16-QAM Gray BER from erfc
    mgf = lambda s: math.exp(s * 10.0)  # noqa: E731  (gamma fixed at 10)
    gamma = 10.0
    q = lambda x: 0.5 * math.erfc(x / math.sqrt(2))  # noqa: E731
    d = math.sqrt(2 * gamma * 3 / 30)
    want = (3 * q(d) + 2 * q(3 * d) - q(5 * d)) / 4
    assert reference.qam_ber(16, mgf) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# checks reject wrong answers
# ---------------------------------------------------------------------------

def stored_point(esno_db):
    with open(reference.K128_FILE) as fh:
        return {p["esno_db"]: p for p in json.load(fh)["points"]}[esno_db]


def test_error_count_check_k128_rejects_twenty_percent():
    p = stored_point(0.0)
    blocks = 64
    args = (blocks, p["mean"], p["var_between"] + p["var_within"], p["var_between"] / p["draws"])
    assert checks.error_count(blocks * p["mean"], *args)
    assert not checks.error_count(1.2 * blocks * p["mean"], *args)
    assert not checks.error_count(0.8 * blocks * p["mean"], *args)


def test_error_count_check_alamouti_rejects_twenty_percent():
    mgf = reference.Diversity(reference.mixed_branches(2), 2, 0.0, shared=True)
    mean = 6 * reference.ber("psk8", mgf)
    blocks = 131072
    assert checks.error_count(blocks * mean, blocks, mean, 6 * mean)
    assert not checks.error_count(1.2 * blocks * mean, blocks, mean, 6 * mean)
    assert not checks.error_count(0.8 * blocks * mean, blocks, mean, 6 * mean)


def test_relative_check_rejects_small_bias():
    assert checks.relative(1.0 + 1e-8, 1.0, 1e-6)
    assert not checks.relative(1.0 + 1e-5, 1.0, 1e-6)
    assert not checks.relative(1.2e-20, 1e-20, 1e-6)


def test_ber_curve_check():
    assert checks.ber_curve([0.3, 0.1, 0.1, 1e-9])
    assert not checks.ber_curve([0.3, 0.1, 0.2])
    assert not checks.ber_curve([0.6, 0.1])
    assert not checks.ber_curve([0.1, -1e-9])


def test_capacity_row_check():
    assert checks.capacity_row([1.0, 1.5, 0.5], [1, 2, 3], 1.5)
    assert not checks.capacity_row([1.2, 1.5, 0.5], [1, 2, 3], 1.5)
    assert not checks.capacity_row([1.0, 1.5, 0.5], [1, 2, 3], 1.0)
    assert not checks.capacity_row([-0.1, 1.5, 0.5], [1, 2, 3], 1.5)


def verify_text(k_max, seed=0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--K", str(k_max), "--seed", str(seed)]) == 0
    return buf.getvalue()


def test_verify_check_accepts_report_and_needs_every_k():
    text = verify_text(16)
    assert all(ok for _, ok in checks.verify_report(text, 16))
    missing = checks.verify_report(text, 32)
    assert [name for name, ok in missing if not ok] == ["verify.round-trip.K32"]


def test_verify_check_rejects_a_failed_line():
    lines = verify_text(8).splitlines()
    bad = "\n".join([lines[0].replace("pass", "FAIL", 1)] + lines[1:])
    assert not dict(checks.verify_report(bad, 8))["verify.report"]
    kept = [line for line in lines[:-1] if "K=8 " not in line or "round-trip" not in line]
    no_trip = "\n".join(kept + [f"{len(kept)} checks, all passed"])
    assert [name for name, ok in checks.verify_report(no_trip, 8) if not ok] == [
        "verify.round-trip.K8"]


def test_oracle_check_rejects_perturbed_estimates():
    rng = np.random.default_rng(3)
    ref = crandn(rng, 64)
    assert checks.oracle(ref * (1 + 1e-12), ref)
    assert not checks.oracle(ref + 1e-6 * crandn(rng, 64), ref)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans._targets()]


def run_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_tracer_restores_every_attribute():
    before = originals()
    seen = []
    with spans.Tracer(observe={"decoder.decode_batch": lambda a, k, r: seen.append(len(a[0]))}) as tr:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
        with tr.span("cli.main"):
            run_quiet(["simulate", "--K", "4", "--trials", "64", "--batch", "32",
                       "--target-errors", "100000", "--workers", "2",
                       "--esno-start", "0", "--esno-stop", "0"])
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert seen == [32, 32]
    metrics = spans.layer_metrics(tr.take())
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["decoder.calls"] == 2 and metrics["decoder.blocks"] == 64
    assert metrics["harness.batches"] == 2
    assert metrics["analysis.ber_calls"] == 1 and metrics["analysis.integrals"] == 6
    assert metrics["analysis.nodes"] == 6 * analysis.DEFAULT_POINTS
    assert 0 < metrics["channels.minors_s"] < metrics["decoder.decode_s"]


def test_tracer_restores_after_an_error():
    before = originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_worker_spans_hang_below_the_sweep():
    with spans.Tracer() as tr:
        run_quiet(["simulate", "--K", "2", "--trials", "64", "--batch", "16",
                   "--target-errors", "100000", "--workers", "2",
                   "--esno-start", "0", "--esno-stop", "0"])
    recorded = tr.take()
    [sweep] = [s for s in recorded if s.name == "harness.run_sweep"]
    decodes = [s for s in recorded if s.name == "decoder.decode_batch"]
    assert len(decodes) == 4 and all(s.parent == sweep.sid for s in decodes)


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    recorded = [S(0, "decoder.decode_batch", 0.0, 10.0, None, 1, 5),
                S(1, "channels.encoded_channel_minors", 1.0, 3.0, 0, 1),
                S(2, "channels.encoded_channel_minors", 2.0, 4.0, 0, 1)]
    metrics = spans.layer_metrics(recorded)
    assert metrics["decoder.self_s"] == pytest.approx(7.0)
    assert metrics["channels.minors_s"] == pytest.approx(4.0)
    assert metrics["decoder.us_per_block"] == pytest.approx(2e6)
