"""Modem tests: Gray maps, round trips, energy normalisation, the PSK
distance spectrum against a brute-force enumeration, and hard-decision
Monte Carlo against the analytic AWGN reference."""

import zlib

import numpy as np
import pytest

from qostbc import count_bit_errors, modulation, psk_distance_spectrum
from qostbc.analysis import BerParams, psk_ber, qam_ber
from qostbc.fading import BranchStat


def all_words(b):
    return np.array([[(v >> (b - 1 - i)) & 1 for i in range(b)] for v in range(2**b)], dtype=np.uint8)


class TestConstellations:
    def test_bpsk_convention(self):
        mod = modulation("bpsk")
        np.testing.assert_allclose(mod.map_bits(np.array([[0]])), [1.0])
        np.testing.assert_allclose(mod.map_bits(np.array([[1]])), [-1.0])

    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "psk8", "psk32", "qam4", "qam16", "qam64", "qam256"])
    def test_roundtrip_and_energy(self, name):
        mod = modulation(name)
        words = all_words(mod.bits_per_symbol)
        syms = mod.map_bits(words)
        np.testing.assert_array_equal(mod.demap(syms), words)
        assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 1e-12

    def test_qpsk_gray_adjacency(self):
        mod = modulation("qpsk")
        ring = mod.demap(mod.points)  # bits in angular order
        for i in range(4):
            assert np.sum(ring[i] != ring[(i + 1) % 4]) == 1

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_psk_ring_gray_adjacency(self, m):
        mod = modulation(f"psk{m}")
        labels = mod.labels
        for i in range(m):
            d = bin(int(labels[i]) ^ int(labels[(i + 1) % m])).count("1")
            assert d == 1

    def test_qam_grid_gray_adjacency(self):
        mod = modulation("qam16")
        # horizontally and vertically adjacent points differ in one bit
        pts = mod.points.reshape(4, 4)
        labs = mod.labels.reshape(4, 4)
        for i in range(4):
            for j in range(4):
                if i + 1 < 4:
                    assert bin(int(labs[i, j]) ^ int(labs[i + 1, j])).count("1") == 1
                if j + 1 < 4:
                    assert bin(int(labs[i, j]) ^ int(labs[i, j + 1])).count("1") == 1
        del pts

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            modulation("qam8")  # odd bit count
        with pytest.raises(ValueError):
            modulation("psk3")
        with pytest.raises(ValueError):
            modulation("fm")

    def test_wrong_bit_count(self):
        with pytest.raises(ValueError):
            modulation("qpsk").map_bits(np.zeros((5, 3), dtype=np.uint8))


class TestDistanceSpectrum:
    def test_bpsk(self):
        np.testing.assert_allclose(psk_distance_spectrum(2), [1.0])

    def test_qpsk(self):
        np.testing.assert_allclose(psk_distance_spectrum(4), [1.0, 2.0, 1.0])

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_matches_gray_enumeration(self, m):
        # independent oracle: average Hamming distance between the Gray
        # labels of constellation points k sectors apart
        labels = modulation(f"psk{m}").labels
        expected = np.empty(m - 1)
        for k in range(1, m):
            expected[k - 1] = np.mean(
                [bin(int(labels[j]) ^ int(labels[(j + k) % m])).count("1") for j in range(m)]
            )
        np.testing.assert_allclose(psk_distance_spectrum(m), expected, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_adjacent_sector_costs_one_bit(self, m):
        assert psk_distance_spectrum(m)[0] == pytest.approx(1.0)


class TestBitErrors:
    def test_identical(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert count_bit_errors(bits, bits) == 0

    def test_complement(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert count_bit_errors(bits, 1 - bits) == 4

    def test_single_flip(self):
        a = np.zeros(8, dtype=np.uint8)
        b = a.copy()
        b[5] = 1
        assert count_bit_errors(a, b) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.zeros(4), np.zeros(5))


AWGN_CASES = [
    # (name, esno_db) chosen so the BER sits well above 1e-4
    ("psk2", 4.0),
    ("psk4", 7.0),
    ("psk8", 10.0),
    ("qam4", 7.0),
    ("qam16", 12.0),
    ("qam64", 16.0),
]


@pytest.mark.parametrize("name,esno_db", AWGN_CASES)
def test_hard_decision_matches_analytic_awgn(name, esno_db):
    # AWGN limit of the fading-averaged formulas (very large Nakagami m)
    # against a seeded hard-decision Monte Carlo, within 3 binomial sigma
    mod = modulation(name)
    params = BerParams(
        n_t=1, n_r=1, branches=(BranchStat("nakagami", 1e4, 1.0),), nakagami_approx=True
    )
    fn = psk_ber if mod.family == "psk" else qam_ber
    p_ref = float(fn(mod.order, params, esno_db))

    # str hash() is salted per process; crc32 gives the same seed every run
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    nsym = 400_000
    bits = rng.integers(0, 2, size=(nsym, mod.bits_per_symbol), dtype=np.uint8)
    tx = mod.map_bits(bits)
    n0 = 10.0 ** (-esno_db / 10.0)
    noise = np.sqrt(n0 / 2.0) * (rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym))
    errors = count_bit_errors(bits, mod.demap(tx + noise))
    nbits = nsym * mod.bits_per_symbol
    sigma = np.sqrt(p_ref * (1 - p_ref) / nbits)
    assert errors >= 100, "test operating point too clean"
    assert abs(errors / nbits - p_ref) <= 3.0 * sigma
