"""Analytic BER tests against independent oracles: Rayleigh/MRC closed
forms, the Gaussian Q function, direct multi-branch quadrature of the
fading average, and structural properties of the formulas."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import comb, erfc

from qostbc import (
    BerParams,
    BranchStat,
    capacity,
    mgf,
    mgf_integral,
    order_stat_mean,
    psk_ber,
    psk_distance_spectrum,
    qam_ber,
    qam_bit_coefficients,
)
from qostbc.fading import m_to_hoyt_q, m_to_rice_k
from qostbc.harness import CAPACITY_MODULATIONS, _shared_power, branch_stats


def rayleigh_params(gamma_db, n=1, n_r=1):
    omega = 10.0 ** (np.asarray(gamma_db) / 10.0)  # gamma_bar at esno 0 dB
    return BerParams(n_t=n, n_r=n_r, branches=tuple(BranchStat("rayleigh", 1.0, float(omega)) for _ in range(n)))


def q_func(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


class TestMgf:
    def test_rayleigh_half(self):
        assert float(mgf(BranchStat("rayleigh"), 1.0, -1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_nakagami_quarter(self):
        v = float(mgf(BranchStat("nakagami", 2.0), 2.0, -1.0, nakagami_approx=True))
        assert v == pytest.approx(0.25, rel=1e-14)

    def test_families_meet_at_rayleigh(self):
        ray = mgf(BranchStat("rayleigh"), 1.3, -0.7)
        assert float(mgf(BranchStat("hoyt", 1.0), 1.3, -0.7)) == pytest.approx(float(ray), rel=1e-9)
        assert float(mgf(BranchStat("rice", 1.0), 1.3, -0.7)) == pytest.approx(float(ray), rel=1e-9)
        assert float(mgf(BranchStat("nakagami", 1.0), 1.3, -0.7)) == pytest.approx(float(ray), rel=1e-9)

    def test_rejects_positive_argument(self):
        with pytest.raises(ValueError):
            mgf(BranchStat("rayleigh"), 1.0, 0.5)


class TestMgfIntegral:
    def test_empty_range(self):
        b = (BranchStat("rayleigh"),)
        assert mgf_integral(1.0, 1.0, 1, 1.0, 1.0, b, [1.0]) == 0.0

    def test_signed_symmetry(self):
        b = (BranchStat("rayleigh"),)
        plus = mgf_integral(0.5, 1.0, 1, 1.0, 1.0, b, [2.0])
        minus = mgf_integral(1.5, 1.0, 1, 1.0, 1.0, b, [2.0])
        assert minus == pytest.approx(-plus, rel=1e-12)

    def test_bpsk_awgn_limit_is_q_function(self):
        gamma = 4.0
        params = BerParams(
            n_t=1, n_r=1, branches=(BranchStat("nakagami", 1e4, gamma),), nakagami_approx=True
        )
        got = float(psk_ber(2, params, 0.0))
        assert got == pytest.approx(q_func(np.sqrt(2 * gamma)), rel=5e-3)

    def test_sweep_matches_single_points(self):
        b = (BranchStat("rice", 2.0), BranchStat("hoyt", 0.7, 0.5), BranchStat("nakagami", 3.0, 2.0))
        sweep = np.array([[0.1, 1.0, 3.0], [1.0, 2.0, 4.0], [30.0, 10.0, 50.0]])
        got = mgf_integral(0.25, 0.5, 6, 1.0, 1.0, b, sweep)
        assert got.shape == (3,)
        for row, value in zip(sweep, got):
            single = mgf_integral(0.25, 0.5, 6, 1.0, 1.0, b, row)
            assert isinstance(single, float) and value == pytest.approx(single, rel=1e-14)

    def test_branch_count_must_divide(self):
        with pytest.raises(ValueError):
            mgf_integral(0.5, 1.0, 3, 1.0, 1.0, (BranchStat("rayleigh"),) * 2, [1.0, 1.0])


class TestPskBer:
    @pytest.mark.parametrize("gamma_db", [0.0, 10.0, 20.0])
    def test_rayleigh_closed_form(self, gamma_db):
        g = 10.0 ** (gamma_db / 10.0)
        exact = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
        got = float(psk_ber(2, rayleigh_params(gamma_db), 0.0))
        assert got == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("diversity", [2, 4])
    def test_mrc_closed_form(self, diversity):
        # classical L-branch maximum ratio combining reference
        g = 10.0 ** (10.0 / 10.0)
        mu = np.sqrt(g / (1.0 + g))
        exact = ((1 - mu) / 2) ** diversity * sum(
            comb(diversity - 1 + l, l, exact=True) * ((1 + mu) / 2) ** l
            for l in range(diversity)
        )
        got = float(psk_ber(2, rayleigh_params(10.0, n_r=diversity), 0.0))
        assert got == pytest.approx(exact, rel=1e-6)

    def test_rate_and_diversity_defaults_are_identity(self):
        params = rayleigh_params(6.0)
        assert params.rho == 1.0 and params.eta == 1.0

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            psk_ber(6, rayleigh_params(0.0), 0.0)


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
    def test_single_uniform(self):
        assert order_stat_mean(1, 1, 1.0) == pytest.approx(0.5)

    def test_largest(self):
        assert order_stat_mean(7, 7, 2.0) == pytest.approx(7.0 / 8.0 * 2.0)

    def test_matches_direct_quadrature(self):
        # oracle: K!/((k-1)!(K-k)!) * int_0^1 x^k (1-x)^(K-k) dx
        k, n = 3, 7
        pref = comb(n, k - 1, exact=True) * (n - k + 1)  # == n!/((k-1)!(n-k)!)
        val, _ = integrate.quad(lambda x: x**k * (1 - x) ** (n - k), 0.0, 1.0)
        assert order_stat_mean(k, n, 1.0) == pytest.approx(pref * val, rel=1e-10)
        assert order_stat_mean(k, n, 1.0) == pytest.approx(3.0 / 8.0)

    def test_range(self):
        with pytest.raises(ValueError):
            order_stat_mean(0, 5)


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
    params = BerParams(n_t=16, n_r=1, branches=_shared_power(branch_stats(16, "mixed", "equipower")))
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
