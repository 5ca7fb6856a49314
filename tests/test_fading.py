"""Fading generator tests: severity conversions, power calibration,
distribution identities and the empirical-vs-analytic MGF tie-in."""

import numpy as np
import pytest
from scipy import stats

from qostbc import (
    BranchStat,
    add_awgn,
    sample_gains,
    linear_profile,
    m_to_hoyt_q,
    m_to_rice_k,
    mgf,
    sample_gain,
    severity_profile,
)
from qostbc.fading import parse_channel_spec, parse_profile_spec, severity_family
from qostbc.harness import branch_stats


class TestSeverityConversions:
    def test_hoyt_rayleigh_point(self):
        assert m_to_hoyt_q(1.0) == pytest.approx(1.0)

    def test_hoyt_one_sided_limit(self):
        assert m_to_hoyt_q(0.5) == 0.0

    def test_rice_rayleigh_point(self):
        assert m_to_rice_k(1.0) == 0.0

    def test_rice_m2(self):
        assert m_to_rice_k(2.0) == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("m", [1.001, 1.5, 2.0, 4.0, 10.0])
    def test_rice_k_inverts_to_m(self, m):
        k = m_to_rice_k(m)
        assert (1 + k) ** 2 / (1 + 2 * k) == pytest.approx(m, rel=1e-9)

    @pytest.mark.parametrize("m", [0.5, 0.6, 0.8, 0.999])
    def test_hoyt_q_inverts_to_m(self, m):
        q = m_to_hoyt_q(m)
        assert (1 + q * q) ** 2 / (2 * (1 + q**4)) == pytest.approx(m, rel=1e-9)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            m_to_hoyt_q(1.2)
        with pytest.raises(ValueError):
            m_to_rice_k(0.9)


class TestBranchStat:
    def test_validation(self):
        with pytest.raises(ValueError):
            BranchStat("rice", 0.8)
        with pytest.raises(ValueError):
            BranchStat("hoyt", 1.5)
        with pytest.raises(ValueError):
            BranchStat("rayleigh", 2.0)
        with pytest.raises(ValueError):
            BranchStat("nakagami", 0.3)
        with pytest.raises(ValueError):
            BranchStat("nakagami", 1.0, omega=0.0)
        with pytest.raises(ValueError):
            BranchStat("laplace", 1.0)

    @pytest.mark.parametrize("family", ["rice", "hoyt", "nakagami"])
    @pytest.mark.parametrize("m", [np.nan, np.inf])
    def test_rejects_non_finite_severity(self, family, m):
        with pytest.raises(ValueError, match="finite"):
            BranchStat(family, m)

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="finite"):
            BranchStat("rayleigh", 1.0, omega)

    def test_severity_family(self):
        assert [severity_family(m) for m in (0.5, 0.99, 1.0, 1.01, 4.0)] == [
            "hoyt", "hoyt", "rayleigh", "rice", "rice"]


STATS = [
    BranchStat("rayleigh", 1.0, 1.3),
    BranchStat("rice", 4.0, 0.7),
    BranchStat("hoyt", 0.6, 2.0),
    BranchStat("nakagami", 2.5, 1.0),
]


@pytest.mark.parametrize("stat", STATS, ids=lambda s: s.family)
def test_unit_power_calibration(stat):
    rng = np.random.default_rng(42)
    h = sample_gain(stat, rng, 1_000_000)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(stat.omega, rel=0.01)


def test_hoyt_q1_is_rayleigh():
    rng = np.random.default_rng(7)
    n = 200_000
    hoyt = sample_gain(BranchStat("hoyt", 1.0), rng, n)
    ray = sample_gain(BranchStat("rayleigh", 1.0), rng, n)
    ks = stats.ks_2samp(np.abs(hoyt) ** 2, np.abs(ray) ** 2)
    assert ks.pvalue > 1e-3


@pytest.mark.parametrize("stat", STATS, ids=lambda s: s.family)
@pytest.mark.parametrize("s", [-0.5, -1.0, -2.0])
def test_empirical_mgf_matches_analytic(stat, s):
    # ties the sampled channels to the MGFs the BER module integrates
    rng = np.random.default_rng(123)
    gamma_bar = 1.7
    h = sample_gain(stat, rng, 1_000_000)
    snr = gamma_bar * np.abs(h) ** 2 / stat.omega
    emp = np.mean(np.exp(s * snr))
    ana = float(mgf(stat, gamma_bar, s))
    assert emp == pytest.approx(ana, rel=0.01)


def test_rice_m4_mgf_point():
    rng = np.random.default_rng(5)
    stat = BranchStat("rice", 4.0, 1.0)
    h = sample_gain(stat, rng, 1_000_000)
    emp = np.mean(np.exp(-np.abs(h) ** 2))
    assert emp == pytest.approx(float(mgf(stat, 1.0, -1.0)), rel=0.01)


def test_nakagami_phase_uniform_and_independent():
    rng = np.random.default_rng(11)
    h = sample_gain(BranchStat("nakagami", 2.5), rng, 200_000)
    phase = np.angle(h)
    assert stats.kstest(phase, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue > 1e-3
    # envelope and phase uncorrelated
    r = np.corrcoef(np.abs(h), phase)[0, 1]
    assert abs(r) < 0.01


class TestProfiles:
    def test_single_branch(self):
        np.testing.assert_allclose(linear_profile(1, 3.0), [3.0])

    def test_three_branches(self):
        np.testing.assert_allclose(linear_profile(3, 2.0), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_mean_is_exact(self, k):
        assert np.mean(linear_profile(k, 0.7)) == pytest.approx(0.7, rel=1e-14)

    def test_matches_uniform_order_statistics(self):
        # k-th smallest of K iid uniforms has mean k/(K+1) * pmax
        rng = np.random.default_rng(3)
        k, pmax, n = 6, 2.0, 100_000
        draws = np.sort(rng.uniform(0, pmax, size=(n, k)), axis=1)
        means = draws.mean(axis=0)
        sem = draws.std(axis=0) / np.sqrt(n)
        expected = linear_profile(k, pmax / 2.0)
        assert np.all(np.abs(means - expected) <= 3.0 * sem)

    def test_severity_endpoints(self):
        np.testing.assert_allclose(severity_profile(2), [0.5, 4.0])

    def test_severity_k8_midpoint_and_mean(self):
        prof = severity_profile(8)
        assert prof[3] == pytest.approx(2.0)
        assert np.mean(prof) == pytest.approx(2.25)
        assert np.all(np.diff(prof) > 0)

    def test_severity_needs_two(self):
        with pytest.raises(ValueError):
            severity_profile(1)


def old_sample_gain(stat, rng, size):
    """The gain generator as first written, kept to pin today's stream."""
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
    power = rng.gamma(stat.m, omega / stat.m, size)
    return np.sqrt(power) * np.exp(2j * np.pi * rng.random(size))


def old_add_awgn(signal, n0, rng):
    noise = rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape)
    return signal + np.sqrt(n0 / 2.0) * noise


class TestBitIdentical:
    """The generators draw and return exactly what their first forms did."""

    @pytest.mark.parametrize("stat", STATS + [BranchStat("hoyt", 0.5), BranchStat("rice", 1.0)],
                             ids=lambda s: f"{s.family}-{s.m}")
    @pytest.mark.parametrize("size", [(4096,), (32, 2)])
    def test_sample_gain(self, stat, size):
        got = sample_gain(stat, np.random.default_rng(9), size)
        want = old_sample_gain(stat, np.random.default_rng(9), size)
        assert np.array_equal(got, want)

    def test_sample_gain_scalar(self):
        for stat in STATS:
            got = sample_gain(stat, np.random.default_rng(3))
            assert np.ndim(got) == 0
            assert got == old_sample_gain(stat, np.random.default_rng(3), None)

    def test_add_awgn(self):
        signal = np.arange(24.0).reshape(2, 3, 4) * (1 - 2j)
        got = add_awgn(signal, 0.3, np.random.default_rng(4))
        assert np.array_equal(got, old_add_awgn(signal, 0.3, np.random.default_rng(4)))
        assert np.array_equal(signal, np.arange(24.0).reshape(2, 3, 4) * (1 - 2j))

    BRANCH_LOOP_CASES = [
        (channel, profile, n_t)
        for channel, profile in [
            ("rayleigh", "equipower"), ("rice:m=2", "equipower"), ("hoyt", "equipower"),
            ("hoyt:m=0.7", "equipower"), ("nakagami:m=2", "equipower"), ("mixed", "equipower"),
            ("rayleigh", "linear:pmax=2"),
        ]
        for n_t in (1, 3, 96)
        if n_t > 1 or channel != "mixed"  # a severity profile needs two branches
    ]

    @pytest.mark.parametrize("channel,profile,n_t", BRANCH_LOOP_CASES)
    def test_sample_gains_is_the_branch_loop(self, channel, profile, n_t, size=(32, 2)):
        stats_ = branch_stats(n_t, channel, profile)
        rng = np.random.default_rng(n_t)
        got = sample_gains(stats_, rng, size)
        tail = rng.random()
        loop_rng = np.random.default_rng(n_t)
        want = np.stack([old_sample_gain(st, loop_rng, size) for st in stats_], axis=-1)
        assert got.shape == (size or ()) + (n_t,)
        assert np.array_equal(got, want)
        assert tail == loop_rng.random()  # the stream is left where the loop leaves it

    @pytest.mark.parametrize("size", [(32, 2), (), None])
    def test_repeated_objects_are_the_branch_loop(self, size):
        # runs of one repeated object, of equal objects, and of equal
        # normal constants from distinct laws, between branches of other
        # forms; equipower's branch_stats repeats one object
        ray, rice = BranchStat("rayleigh", 1.0, 0.5), BranchStat("rice", 2.0, 0.5)
        hoyt, nak = BranchStat("hoyt", 0.6, 2.0), BranchStat("nakagami", 2.5, 1.0)
        stats_ = ([ray] * 3 + [BranchStat("rayleigh", 1.0, 0.5), BranchStat("hoyt", 1.0, 0.5), rice, rice]
                  + [hoyt] * 2 + [ray] + [nak] * 3 + [rice, ray])
        rng = np.random.default_rng(11)
        got = sample_gains(stats_, rng, size)
        tail = rng.random()
        loop_rng = np.random.default_rng(11)
        want = np.stack([old_sample_gain(st, loop_rng, size) for st in stats_], axis=-1)
        assert np.array_equal(got, want)
        assert tail == loop_rng.random()
        equal = branch_stats(96, "rayleigh", "equipower")
        assert all(st is equal[0] for st in equal)
        self.test_sample_gains_is_the_branch_loop("rice:m=2", "equipower", 96, size)

    @pytest.mark.parametrize("size", [(), None])
    @pytest.mark.parametrize("channel,profile,n_t", BRANCH_LOOP_CASES)
    def test_sample_gains_is_the_branch_loop_at_0d(self, channel, profile, n_t, size):
        # a Rice line-of-sight term must land on 0-d draws too
        self.test_sample_gains_is_the_branch_loop(channel, profile, n_t, size)


class TestAwgn:
    def test_never_writes_its_input(self):
        rng = np.random.default_rng(7)
        signal = rng.standard_normal((256, 16, 2)) + 1j * rng.standard_normal((256, 16, 2))
        # a strided view too, like the simulator's received blocks
        for sig in (signal, signal[:, ::2].transpose(0, 2, 1)):
            kept = sig.copy()
            got = add_awgn(sig, 0.4, np.random.default_rng(8))
            assert not np.shares_memory(got, sig)
            assert np.array_equal(sig, kept)

    def test_rejects_negative_noise_power(self):
        with pytest.raises(ValueError, match="non-negative"):
            add_awgn(np.ones(4, dtype=complex), -0.1, np.random.default_rng(0))

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.ones(10, dtype=complex)
        np.testing.assert_array_equal(add_awgn(x, 0.0, rng), x)

    def test_variance_calibration(self):
        rng = np.random.default_rng(1)
        noise = add_awgn(np.zeros(1_000_000, dtype=complex), 0.8, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.8, rel=0.01)
        assert abs(np.mean(noise)) < 0.005


class TestSpecParsing:
    def test_channel_specs(self):
        assert parse_channel_spec("rayleigh") == ("rayleigh", 1.0)
        assert parse_channel_spec("rice:m=2") == ("rice", 2.0)
        assert parse_channel_spec("hoyt:m=0.7") == ("hoyt", 0.7)
        assert parse_channel_spec("nakagami:m=2.5") == ("nakagami", 2.5)
        assert parse_channel_spec("mixed") == ("mixed", None)
        with pytest.raises(ValueError):
            parse_channel_spec("awgn")

    def test_profile_specs(self):
        assert parse_profile_spec("equipower") == ("equipower", None)
        assert parse_profile_spec("linear:pmax=2") == ("linear", 2.0)
        assert parse_profile_spec("linear") == ("linear", 2.0)
        with pytest.raises(ValueError):
            parse_profile_spec("quadratic")
