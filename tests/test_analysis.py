"""Analytic BER tests against independent oracles: Rayleigh/MRC closed
forms, the Gaussian Q function, direct multi-branch quadrature of the
fading average, the BER sums of one integral per sector edge or term, and
structural properties of the formulas."""

import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import comb, erfc

from qostbc import (
    BerParams,
    BranchStat,
    bit_error_rate,
    capacity,
    mgf,
    mgf_integral,
    modulation,
    psk_ber,
    psk_distance_spectrum,
    qam_ber,
    qam_bit_coefficients,
)
from qostbc import analysis, cli
from qostbc.fading import linear_profile, m_to_hoyt_q, m_to_rice_k
from qostbc.harness import CAPACITY_MODULATIONS, _shared_branches, branch_stats

from oracles import psk_ber_sectors, qam_ber_terms


def rayleigh_params(gamma_db, n=1, n_r=1):
    omega = 10.0 ** (np.asarray(gamma_db) / 10.0)  # gamma_bar at esno 0 dB
    return BerParams(n_t=n, n_r=n_r, branches=tuple(BranchStat("rayleigh", 1.0, float(omega)) for _ in range(n)))


def q_func(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


def integral_counts(monkeypatch, fn, orders):
    """Distinct ``(delta, g)`` pairs of the one ``mgf_integral`` call of
    ``fn(m, ...)``, per order ``m``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.broadcast_arrays(args[0], args[1]))
        return mgf_integral(*args, **kwargs)

    monkeypatch.setattr(analysis, "mgf_integral", counting)
    counts = {}
    for m in orders:
        calls.clear()
        fn(m, rayleigh_params(0.0), [0.0, 10.0])
        assert len(calls) == 1
        counts[m] = len(set(zip(*calls[0])))
    return counts


class TestMgf:
    def test_rayleigh_half(self):
        assert float(mgf(BranchStat("rayleigh"), 1.0, -1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_nakagami_quarter(self):
        v = float(mgf(BranchStat("nakagami", 2.0), 2.0, -1.0))
        assert v == pytest.approx(0.25, rel=1e-14)

    def test_families_meet_at_rayleigh(self):
        ray = mgf(BranchStat("rayleigh"), 1.3, -0.7)
        assert float(mgf(BranchStat("hoyt", 1.0), 1.3, -0.7)) == pytest.approx(float(ray), rel=1e-9)
        assert float(mgf(BranchStat("rice", 1.0), 1.3, -0.7)) == pytest.approx(float(ray), rel=1e-9)
        assert float(mgf(BranchStat("nakagami", 1.0), 1.3, -0.7)) == pytest.approx(float(ray), rel=1e-9)

    def test_rejects_positive_argument(self):
        with pytest.raises(ValueError):
            mgf(BranchStat("rayleigh"), 1.0, 0.5)

    def test_shape_follows_s(self):
        assert isinstance(mgf(BranchStat("hoyt", 0.7), 1.3, -0.7), np.float64)
        got = mgf(BranchStat("rice", 2.0), 1.3, -np.arange(6.0).reshape(2, 3))
        assert got.shape == (2, 3) and got[0, 0] == 1.0

    def test_overflowed_base_is_silent_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mgf(BranchStat("rice", 2.0), 1e300, -1e10) == 0


# three families, one branch each, of distinct mean powers
MIXED_BRANCHES = (BranchStat("rice", 2.0), BranchStat("hoyt", 0.7, 0.5), BranchStat("nakagami", 3.0, 2.0))


class TestMgfIntegral:
    def test_empty_range(self):
        assert mgf_integral(1.0, 1.0, rayleigh_params(0.0), 0.0) == 0.0

    def test_signed_symmetry(self):
        params = BerParams(n_t=1, n_r=1, branches=(BranchStat("rayleigh", 1.0, 2.0),))
        plus = mgf_integral(0.5, 1.0, params, 0.0)
        minus = mgf_integral(1.5, 1.0, params, 0.0)
        assert minus == pytest.approx(-plus, rel=1e-12)

    def test_bpsk_awgn_limit_is_q_function(self):
        gamma = 4.0
        params = BerParams(n_t=1, n_r=1, branches=(BranchStat("nakagami", 1e4, gamma),))
        got = float(psk_ber(2, params, 0.0))
        assert got == pytest.approx(q_func(np.sqrt(2 * gamma)), rel=5e-3)

    def test_sweep_matches_single_points(self):
        params = BerParams(n_t=3, n_r=2, branches=MIXED_BRANCHES)
        esno_db = np.array([-10.0, 0.0, 12.5, 40.0])
        got = mgf_integral(0.25, 0.5, params, esno_db)
        assert got.shape == (4,)
        for e, value in zip(esno_db, got):
            single = mgf_integral(0.25, 0.5, params, e)
            assert isinstance(single, float) and value == pytest.approx(single, rel=1e-14)

    def test_params_need_one_branch_per_antenna(self):
        # the kernel replicates each branch over the n_r receive antennas,
        # so its params carry exactly one branch per transmit antenna
        with pytest.raises(ValueError, match="need 2 branch statistics"):
            BerParams(n_t=2, n_r=3, branches=(BranchStat("rayleigh"),) * 3)

    @pytest.mark.parametrize("field, match", [
        (dict(n_t=0, branches=()), "n_t must be"),
        (dict(eta=0.0), "diversity order"),
        (dict(n_r=0), "n_r must be"),
    ], ids=["n_t", "eta", "n_r"])
    def test_params_reject_out_of_range(self, field, match):
        fields = dict(n_t=1, n_r=1, branches=(BranchStat("rayleigh"),))
        with pytest.raises(ValueError, match=match):
            BerParams(**{**fields, **field})

    def test_pairs_give_one_row_each(self):
        params = BerParams(n_t=3, n_r=2, branches=MIXED_BRANCHES)
        # an infinite mean SNR integrates to 0, a zero one to the full range
        esno_db = np.array([-10.0, 3.0, np.inf, -np.inf])
        delta, g = [0.25, 1.5, 1.0, 0.5], [0.5, 0.5, 0.3, 2.0]
        got = mgf_integral(delta, g, params, esno_db)
        assert got.shape == (4, 4)
        for row, d, gg in zip(got, delta, g):
            np.testing.assert_array_equal(row, mgf_integral(d, gg, params, esno_db))
        assert np.all(got[:, 2] == 0.0)
        point = mgf_integral(0.5, g, params, -10.0)
        assert point.shape == (4,)
        np.testing.assert_array_equal(point, mgf_integral(0.5, g, params, esno_db[:1])[:, 0])
        with pytest.raises(ValueError):
            mgf_integral([[0.5]], 1.0, params, esno_db)
        with pytest.raises(ValueError, match="g must be positive"):
            mgf_integral(0.5, [1.0, 0.0], params, esno_db)

    def test_pairs_do_not_depend_on_their_chunk(self):
        # 61 pairs on 16 mixed branches fill chunks of 52 integrals by one SNR
        # point; one pair alone takes all 16 points per chunk.  Rows of the
        # high-SNR points hold overflowed branch products
        params = BerParams(n_t=16, n_r=1, branches=_shared_branches(16, "mixed", "equipower"))
        esno_db = np.linspace(-10.0, 50.0, 16)
        delta, g, _ = analysis._ber_terms("qam", 4096)
        got = mgf_integral(delta, g, params, esno_db)
        for row, d, gg in zip(got, delta, g):
            np.testing.assert_array_equal(row, mgf_integral(d, gg, params, esno_db))


class TestPskBer:
    @pytest.mark.parametrize("gamma_db", [0.0, 10.0, 20.0])
    def test_rayleigh_closed_form(self, gamma_db):
        g = 10.0 ** (gamma_db / 10.0)
        exact = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
        got = float(psk_ber(2, rayleigh_params(gamma_db), 0.0))
        assert got == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("n, n_r, gamma_db, rel", [
        pytest.param(1, 2, 10.0, 1e-6, id="2"),
        pytest.param(1, 4, 10.0, 1e-6, id="4"),
        # 64 equal transmit branches
        pytest.param(64, 1, -15.0, 1e-10, id="64-branches"),
    ])
    def test_mrc_closed_form(self, n, n_r, gamma_db, rel):
        # classical L-branch maximum ratio combining reference
        diversity, g = n * n_r, 10.0 ** (gamma_db / 10.0)
        mu = np.sqrt(g / (1.0 + g))
        exact = ((1 - mu) / 2) ** diversity * sum(
            comb(diversity - 1 + l, l, exact=True) * ((1 + mu) / 2) ** l
            for l in range(diversity)
        )
        got = float(psk_ber(2, rayleigh_params(gamma_db, n=n, n_r=n_r), 0.0))
        assert got == pytest.approx(exact, rel=rel)

    def test_rate_and_diversity_defaults_are_identity(self):
        params = rayleigh_params(6.0)
        assert params.rho == 1.0 and params.eta == 1.0

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            psk_ber(6, rayleigh_params(0.0), 0.0)

    def test_one_pass_folds_the_sectors(self, monkeypatch):
        # the 2(M-1) sector integrals telescope onto the M edges and fold
        # by I(2 - d) = -I(d); edges of weight zero are skipped
        counts = integral_counts(monkeypatch, psk_ber, (2, 4, 8, 16, 32, 64))
        assert counts == {2: 1, 4: 2, 8: 2, 16: 6, 32: 14, 64: 30}


class TestQamBer:
    def test_coefficients_m4(self):
        np.testing.assert_allclose(qam_bit_coefficients(4, 1), [1.0])

    def test_coefficients_m16(self):
        np.testing.assert_allclose(qam_bit_coefficients(16, 1), [1.0, 1.0])
        np.testing.assert_allclose(qam_bit_coefficients(16, 2), [2.0, 1.0, -1.0])

    @pytest.mark.parametrize("family", ["rayleigh", "rice", "hoyt", "nakagami"])
    def test_qam4_equals_qpsk(self, family):
        m = {"rayleigh": 1.0, "rice": 2.5, "hoyt": 0.7, "nakagami": 1.8}[family]
        params = BerParams(n_t=1, n_r=1, branches=(BranchStat(family, m, 2.0),))
        a = float(qam_ber(4, params, 3.0))
        b = float(psk_ber(4, params, 3.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            qam_ber(8, rayleigh_params(0.0), 0.0)

    def test_sweep_vectorised(self):
        params = rayleigh_params(0.0)
        sweep = qam_ber(16, params, np.array([0.0, 5.0, 10.0]))
        assert sweep.shape == (3,)
        assert np.all(np.diff(sweep) < 0)

    @pytest.mark.parametrize("m", [4, 16, 64, 256, 1024, 4096])
    def test_equals_per_bit_loop(self, m):
        # each Q-function term integrated once per bit, as the BER's
        # definition sums them
        params = BerParams(n_t=8, n_r=2, branches=_shared_branches(8, "mixed", "equipower"))
        esno_db = np.arange(-10.0, 41.0, 5.0)
        bits, side = int(np.log2(m)), int(round(np.sqrt(m)))
        total = 0.0
        for k in range(1, bits // 2 + 1):
            for i, d in enumerate(qam_bit_coefficients(m, k)):
                g = 3.0 * (2 * i + 1) ** 2 / (2.0 * (m - 1))
                total = total + d * mgf_integral(0.5, g, params, esno_db)
        want = 4.0 * total / (side * bits)
        np.testing.assert_allclose(qam_ber(m, params, esno_db), want, rtol=1e-13, atol=0.0)

    def test_one_integral_per_term(self, monkeypatch):
        counts = integral_counts(monkeypatch, qam_ber, (4, 16, 64, 256, 1024, 4096))
        assert counts == {4: 1, 16: 3, 64: 5, 256: 13, 1024: 29, 4096: 61}

    def test_bit_error_rate_picks_the_formula(self):
        params = rayleigh_params(3.0)
        for name, fn in (("psk8", psk_ber), ("qam64", qam_ber)):
            mod = modulation(name)
            got = bit_error_rate(mod, params, [0.0, 5.0])
            np.testing.assert_array_equal(got, fn(mod.order, params, [0.0, 5.0]))


class TestStructuralProperties:
    def test_monotone_in_snr_and_order(self):
        params = rayleigh_params(0.0)
        esno = np.arange(-5.0, 25.0, 2.5)
        for fn, orders in ((psk_ber, (2, 4, 8)), (qam_ber, (4, 16, 64))):
            prev = None
            for m in orders:
                vals = fn(m, params, esno)
                assert np.all(np.diff(vals) < 0)
                assert np.all((vals > 0) & (vals <= 0.5))
                if prev is not None:
                    assert np.all(vals >= prev)
                prev = vals

    @pytest.mark.parametrize("diversity", [1, 2, 4])
    def test_high_snr_slope_is_diversity_order(self, diversity):
        params = rayleigh_params(0.0, n_r=diversity)
        esno = np.array([20.0, 25.0, 30.0])
        ber = psk_ber(2, params, esno)
        slope = np.polyfit(esno / 10.0, np.log10(ber), 1)[0]
        assert slope == pytest.approx(-diversity, rel=0.10)

    @pytest.mark.parametrize("family", ["rayleigh", "rice", "hoyt", "nakagami"])
    @pytest.mark.parametrize("fn, m", [(psk_ber, 8), (qam_ber, 64)], ids=["psk8", "qam64"])
    def test_infinite_snr_is_error_free(self, fn, m, family):
        severity = {"rayleigh": 1.0, "rice": 3.0, "hoyt": 0.5, "nakagami": 0.5}[family]
        params = BerParams(n_t=2, n_r=1, branches=(BranchStat(family, severity, 1.0),) * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(m, params, np.inf) == 0.0
            np.testing.assert_array_equal(fn(m, params, [np.inf, 10.0])[:1], [0.0])
            # so is a finite Es/N0 whose mean SNR 10^(Es/N0 / 10) overflows
            np.testing.assert_array_equal(fn(m, params, [4000.0, 1e300]), [0.0, 0.0])

    def test_two_branch_average_matches_direct_quadrature(self):
        # independent oracle: average the conditional BPSK error rate over
        # two Rayleigh branch densities by direct 2-D integration
        g1, g2 = 1.5, 0.8
        params = BerParams(
            n_t=2,
            n_r=1,
            branches=(BranchStat("rayleigh", 1.0, g1), BranchStat("rayleigh", 1.0, g2)),
        )
        got = float(psk_ber(2, params, 0.0))

        def integrand(y, x):
            return (
                q_func(np.sqrt(2.0 * (x + y)))
                * np.exp(-x / g1) / g1
                * np.exp(-y / g2) / g2
            )

        ref, _ = integrate.dblquad(integrand, 0, 60.0, 0, 60.0, epsabs=1e-12, epsrel=1e-10)
        assert got == pytest.approx(ref, rel=1e-4)


class TestCapacity:
    def test_error_free(self):
        assert capacity(4, 1.0, 0.0) == pytest.approx(4.0)

    def test_useless_channel(self):
        assert capacity(4, 1.0, 0.5) == 0.0

    def test_entropy_point(self):
        # H2(0.11) is roughly one half, so two bits deliver about one
        assert capacity(2, 1.0, 0.11) == pytest.approx(1.0, abs=2e-4)

    def test_range_check(self):
        with pytest.raises(ValueError):
            capacity(2, 1.0, 0.6)


class TestOrderStatMean:
    """``fading.linear_profile`` is the mean of the ascending order
    statistics of uniform branch powers: entry ``k`` of ``linear_profile(n,
    pmax / 2)`` is the mean of the k-th smallest of ``n`` uniforms on [0,
    pmax]."""

    @staticmethod
    def mean(k, n, pmax=1.0):
        return linear_profile(n, pmax / 2.0)[k - 1]

    def test_single_uniform(self):
        assert self.mean(1, 1, 1.0) == pytest.approx(0.5)

    def test_largest(self):
        assert self.mean(7, 7, 2.0) == pytest.approx(7.0 / 8.0 * 2.0)

    def test_matches_direct_quadrature(self):
        # oracle: n!/((k-1)!(n-k)!) * int_0^1 x^k (1-x)^(n-k) dx
        k, n = 3, 7
        pref = comb(n, k - 1, exact=True) * (n - k + 1)  # == n!/((k-1)!(n-k)!)
        val, _ = integrate.quad(lambda x: x**k * (1 - x) ** (n - k), 0.0, 1.0)
        assert self.mean(k, n, 1.0) == pytest.approx(pref * val, rel=1e-10)
        assert self.mean(k, n, 1.0) == pytest.approx(3.0 / 8.0)

    def test_range(self):
        with pytest.raises(ValueError):
            linear_profile(0)


# ---------------------------------------------------------------------------
# accuracy against adaptive quadrature, and memory of long sweeps
# ---------------------------------------------------------------------------

def reference_mgf(stat, x):
    """``E[exp(-x gamma / gamma_bar)]`` from the textbook closed forms."""
    if stat.family == "nakagami":
        return (1.0 + x / stat.m) ** (-stat.m)
    if stat.m == 1.0:
        return 1.0 / (1.0 + x)
    if stat.family == "hoyt":
        q = m_to_hoyt_q(stat.m)
        return (1.0 + 2.0 * x + (2.0 * x * q / (1.0 + q * q)) ** 2) ** -0.5
    k = m_to_rice_k(stat.m)
    return (1.0 + k) / (1.0 + k + x) * np.exp(-k * x / (1.0 + k + x))


def reference_terms(name):
    """``(weight, upper limit, g)`` of every angular term of the BER, with
    each integral rescaled to ``t`` in [0, 1] by ``theta = upper * t``."""
    order = int(name[3:])
    bits = order.bit_length() - 1
    if name.startswith("psk"):
        spectrum = psk_distance_spectrum(order)
        w, d = np.array([(sign * spectrum[k - 1] / (2.0 * bits), d)
                         for k in range(1, order)
                         for d, sign in (((2 * k - 1) / order, 1.0), ((2 * k + 1) / order, -1.0))]).T
        return w * (1.0 - d), np.pi * (1.0 - d), np.sin(np.pi * d) ** 2
    side = int(round(np.sqrt(order)))
    w, g = np.array([(4.0 * c / (side * bits), 3.0 * (2 * i + 1) ** 2 / (2.0 * (order - 1)))
                     for k in range(1, bits // 2 + 1)
                     for i, c in enumerate(qam_bit_coefficients(order, k))]).T
    return w / 2.0, np.full(len(w), np.pi / 2.0), g


def reference_ber(name, params, esno_db):
    """BER over a sweep by ``scipy.integrate.quad_vec`` (relative 1e-13).

    Every term of the BER shares one integrand on [0, 1].  Each SNR
    component is divided by its largest value on a coarse grid, so the
    adaptive rule's max-norm error test is relative per component down to
    a BER of about 1e-40.
    """
    distinct = list(dict.fromkeys(params.branches))
    counts = [params.branches.count(b) * params.n_r for b in distinct]
    gbar = 10.0 ** (np.asarray(esno_db)[:, None] / 10.0) * [b.omega for b in distinct]
    weight, upper, g = reference_terms(name)

    def integrand(t):
        x = gbar * (g / np.sin(upper * t) ** 2)[:, None, None]
        prod = np.ones(x.shape[:2])
        for j, (stat, n) in enumerate(zip(distinct, counts)):
            prod = prod * reference_mgf(stat, x[:, :, j]) ** n
        return weight @ prod

    grid = np.linspace(0.0, 1.0, 41)[1:]
    scale = np.maximum(np.max([np.abs(integrand(t)) for t in grid], axis=0), 1e-40)
    value, _ = integrate.quad_vec(lambda t: integrand(t) / scale, 0.0, 1.0,
                                  epsabs=0.0, epsrel=1e-13, norm="max", limit=2000)
    return value * scale


def assert_matches_reference(name, params, esno_db):
    fn = psk_ber if name.startswith("psk") else qam_ber
    got = fn(int(name[3:]), params, esno_db)
    ref = reference_ber(name, params, esno_db)
    checked = ref > 1e-30
    assert checked.any()
    np.testing.assert_allclose(got[checked], ref[checked], rtol=1e-10, atol=0.0, err_msg=name)


@pytest.mark.parametrize(
    "channel", ["rayleigh", "rice:m=4", "hoyt:m=0.6", "nakagami:m=3.5", "nakagami:m=0.5"]
)
def test_ber_matches_adaptive_quadrature(channel):
    esno_db = np.arange(-10.0, 41.0, 10.0)
    for n_t, n_r in ((1, 1), (8, 4), (16, 4)):
        params = BerParams(n_t=n_t, n_r=n_r, branches=branch_stats(n_t, channel, "equipower"))
        for name in ("psk2", "psk8", "psk32", "qam16", "qam4096"):
            assert_matches_reference(name, params, esno_db)


def test_capacity_case_matches_adaptive_quadrature():
    # the mixed 16-branch channel of ``capacity --nt 16 --channel mixed``
    params = BerParams(n_t=16, n_r=1, branches=_shared_branches(16, "mixed", "equipower"))
    for name in CAPACITY_MODULATIONS:
        assert_matches_reference(name, params, np.arange(0.0, 31.0, 5.0))


def test_long_sweep_memory_is_bounded():
    # unchunked, one (SNR, branch, node) temporary of this sweep is ~246 MB
    params = BerParams(n_t=16, n_r=1, branches=branch_stats(16, "mixed", "equipower"))
    esno_db = np.linspace(-10.0, 40.0, 20_001)
    tracemalloc.start()
    try:
        ber = psk_ber(2, params, esno_db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ber.shape == esno_db.shape and np.all(np.diff(ber) < 0)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("approx", [False, True], ids=["binding", "nakagami-approx"])
@pytest.mark.parametrize(
    "channel", ["rayleigh", "rice:m=4", "hoyt:m=0.6", "nakagami:m=3.5", "nakagami:m=0.5", "mixed"]
)
def test_ber_matches_one_integral_per_edge_and_term(channel, approx):
    # the one vectorised pass against the BER sums as defined; at n_t = 64
    # and 40 dB some branch products overflow, whose integrands are not
    # negligible where the power a * n_r * eta is below 1
    esno_db = np.r_[-np.inf, np.arange(-10.0, 41.0, 10.0), np.inf]
    for n_t in (1, 2, 8, 16, 64):
        if channel == "mixed" and n_t == 1:
            continue
        for n_r, eta in ((1, 1.0), (2, 0.5)):
            branches = branch_stats(n_t, channel, "equipower")
            if approx:
                branches = [BranchStat("nakagami", b.m, b.omega) for b in branches]
            params = BerParams(n_t=n_t, n_r=n_r, branches=branches, eta=eta)
            for m in (2, 4, 8, 16, 32, 64):
                np.testing.assert_allclose(psk_ber(m, params, esno_db), psk_ber_sectors(m, params, esno_db),
                                           rtol=1e-11, atol=0.0, err_msg=f"psk{m} n_t={n_t}")
            for m in (4, 16, 64, 256, 1024, 4096):
                np.testing.assert_allclose(qam_ber(m, params, esno_db), qam_ber_terms(m, params, esno_db),
                                           rtol=1e-11, atol=0.0, err_msg=f"qam{m} n_t={n_t}")


def test_large_analyze_stays_in_chunks_without_warnings():
    # about half the branch products of 1024 x 4 branches overflow, which
    # must stay silent.  Every temporary is chunked: the widest group, 877
    # Rice branches, is wider than a chunk, so a chunk holds one integral's
    # nodes at one SNR point.  The peak, about 3.6 MB, is two scratch
    # buffers for that group (1.3 chunks each) plus the overflowed entries'
    # per-branch logs, where one unchunked temporary would take 240 MB
    argv = ["analyze", "--mod", "qam4096", "--nt", "1024", "--nr", "4", "--channel", "mixed",
            "--esno-start", "0", "--esno-stop", "40", "--esno-step", "10"]
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert rc == 0
    ber = np.array([float(line.split(",")[1]) for line in out.getvalue().splitlines()[1:]])
    assert len(ber) == 5 and np.all(ber > 0) and np.all(np.diff(ber) < 0)
    assert peak < 12 * analysis.CHUNK_ELEMENTS * 8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    "analyze --mod qpsk --nt 2 --omega-list 1e300,1e300 --esno-start 10 --esno-stop 10",
    "capacity --nt 2 --profile linear:pmax=1e306 --esno-start 20 --esno-stop 20",
])
def test_node_products_past_the_float_range_are_silent(argv, capsys):
    # a finite mean SNR whose node products overflow has MGF 0 there: BER 0
    # and every modulation at its full rate, with no warning
    assert cli.main(argv.split()) == 0
    header, row = capsys.readouterr().out.splitlines()
    names, values = header.split(",")[1:], [float(v) for v in row.split(",")[1:]]
    if names == ["ber"]:
        assert values == [0.0]
    else:
        rates = [modulation(name).bits_per_symbol for name in names[:-1]]
        assert values == rates + [max(rates)]


@pytest.mark.parametrize("flags, same_as", [
    ("--channel rice:m=3", "--channel nakagami:m=3"),
    ("--channel hoyt:m=0.6 --profile linear:pmax=2", "--channel nakagami:m=0.6 --profile linear:pmax=2"),
    ("--channel rice:m=2 --m-list 0.6,1,4 --omega-list 1,2,0.5",
     "--channel nakagami --m-list 0.6,1,4 --omega-list 1,2,0.5"),
])
def test_approximation_is_the_nakagami_channel(flags, same_as, capsys):
    # --nakagami-approx maps every branch to Nakagami of its own severity
    # and power, after --m-list and --omega-list
    common = "analyze --mod psk8 --nt 3 --nr 2 --esno-start -10 --esno-stop 40 --esno-step 10".split()
    assert cli.main(common + flags.split() + ["--nakagami-approx"]) == 0
    approx = capsys.readouterr().out
    assert cli.main(common + same_as.split()) == 0
    assert approx == capsys.readouterr().out
    args = cli.build_parser().parse_args(common + flags.split() + ["--nakagami-approx"])
    mapped = cli._branches_from_args(args, 3)
    plain = cli._branches_from_args(cli.build_parser().parse_args(common + flags.split()), 3)
    assert mapped == [BranchStat("nakagami", b.m, b.omega) for b in plain]
    if args.m_list:
        assert [b.m for b in mapped] == args.m_list
