"""Modem tests: Gray maps, round trips, energy normalisation, the table
forms of map and demap against integer-label references, the PSK distance
spectrum against a brute-force enumeration, and hard-decision Monte Carlo
against the analytic AWGN reference."""

import zlib

import numpy as np
import pytest

from qostbc import count_bit_errors, modulation, psk_distance_spectrum
from qostbc.analysis import BerParams, psk_ber, qam_ber
from qostbc.fading import BranchStat
from qostbc.harness import CAPACITY_MODULATIONS


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


def tensordot_map(mod, bits):
    """Reference map: int64 tensordot of the bits with their weights, then a label lookup."""
    b = mod.bits_per_symbol
    point_of_label = np.empty(mod.order, dtype=complex)
    point_of_label[mod.labels] = mod.points
    weights = 1 << np.arange(b - 1, -1, -1)
    labels = np.tensordot(np.asarray(bits).astype(np.int64), weights, axes=([-1], [0]))
    return point_of_label[labels]


def label_demap(mod, symbols):
    """Reference demap: the decided Gray label as an integer, then its bits by shifts."""
    symbols = np.asarray(symbols, dtype=complex)
    m, b = mod.order, mod.bits_per_symbol
    if mod.family == "psk":
        sector = np.round(np.angle(symbols) * m / (2 * np.pi)).astype(int)
        labels = mod.labels[np.mod(sector, m)]
    else:
        side = int(round(np.sqrt(m)))
        scale = np.sqrt(3.0 / (2.0 * (m - 1)))

        def gray_axis(coord):
            idx = np.clip(np.round((coord / scale + side - 1) / 2.0).astype(int), 0, side - 1)
            return idx ^ (idx >> 1)

        labels = gray_axis(symbols.real) * side + gray_axis(symbols.imag)
    return ((labels[..., None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8)


class TestTableForms:
    """``map_bits`` and ``demap`` go through small tables; they must equal
    the integer-label forms above for every modulation the capacity sweep
    uses."""

    @pytest.mark.parametrize("name", CAPACITY_MODULATIONS)
    def test_map_bits_matches_tensordot_form(self, name):
        mod = modulation(name)
        b = mod.bits_per_symbol
        words = all_words(b)  # every label, 12 bits wide for qam4096
        for bits in (words, words.astype(bool), words.astype(np.int64), words.reshape(2, -1, b)):
            got = mod.map_bits(bits)
            assert got.dtype == np.complex128 and got.shape == bits.shape[:-1]
            np.testing.assert_array_equal(got, tensordot_map(mod, bits))

    @pytest.mark.parametrize("name", CAPACITY_MODULATIONS)
    def test_demap_matches_label_form(self, name):
        mod = modulation(name)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        noisy = np.resize(mod.points, 3000) + 0.3 * (
            rng.standard_normal(3000) + 1j * rng.standard_normal(3000))
        edges = [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-2.5, 0.0),
                 complex(-1.0, -1e-300), 1j, -1j, 1 + 1j, -1 - 1j, 0j, 10 - 10j]
        if mod.family == "psk":
            # angles at +-pi and half-way between neighbouring points
            ties = np.exp(1j * np.pi * (2 * np.arange(mod.order) + 1) / mod.order)
            sym = np.concatenate([noisy, edges, ties, 3.0 * ties])
            frac = np.angle(sym) * mod.order / (2 * np.pi) % 1
            assert np.any(frac == 0.5)  # at least one exact rounding tie
            assert np.angle(complex(-1.0, 0.0)) == np.pi
            assert np.angle(complex(-1.0, -0.0)) == -np.pi
        else:
            # coordinates on and beyond the decision boundaries
            side = int(round(np.sqrt(mod.order)))
            scale = np.sqrt(3.0 / (2.0 * (mod.order - 1)))
            bounds = (2 * np.arange(side + 1) - side) * scale
            sym = np.concatenate([noisy, edges, bounds + 1j * bounds[::-1], -bounds + 0j])
        for symbols in (sym, sym.reshape(-1, 2)[:-1]):
            got = mod.demap(symbols)
            assert got.dtype == np.uint8 and got.shape == symbols.shape + (mod.bits_per_symbol,)
            np.testing.assert_array_equal(got, label_demap(mod, symbols))


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
    params = BerParams(n_t=1, n_r=1, branches=(BranchStat("nakagami", 1e4, 1.0),))
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
