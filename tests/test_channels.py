"""Encoded-channel tests: minor construction (golden sign patterns at
K=32, the closed-form minors against the channel-side recursion), the
factorisation identity and the block-diagonality of the
matched filter's product, and the Walsh-domain forward model of the
simulator against the code's own encoder."""

import numpy as np
import pytest

from qostbc import build_mother, encode, encoded_channel_minors, puncture, received_blocks

ALL_K = [2, 4, 8, 16, 32, 64, 128, 256]
TABLE_CASES = [
    (k, n_t) for k in ALL_K + [512, 1024] for n_t in sorted({1, 3, k // 2, k - 1, k}) if n_t <= k
]


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def minors_model(h, s, k):
    """Received block ``[H1 s ; H2 conj(s)]`` through the encoded channel minors."""
    h1, h2 = encoded_channel_minors(h, k)
    return np.concatenate([h1 @ s, h2 @ np.conj(s)])


# The channel-side ABBA recursion (Tirkkonen, Boariu & Hottinen, ISSSTA
# 2000), a derivation of the minors independent of their closed form: H1 is
# the upper half of the "channel" manifold of the zero-extended gains, H2
# that of the "combining" manifold of the half-swapped gains.  Each template
# builds a matrix of twice the size from two equal blocks a and b.
TEMPLATES = {
    "channel": lambda a, b: ((a, b), (b, -a)),
    "combining": lambda a, b: ((a, -b), (b, a)),
}


def manifold(vec, generator):
    """Recursive block matrix ``(..., K, K)`` of ``vec`` of shape ``(..., K)``."""
    blocks = np.asarray(vec)[..., :, None, None]
    while blocks.shape[-3] > 1:
        rows = TEMPLATES[generator](blocks[..., 0::2, :, :], blocks[..., 1::2, :, :])
        blocks = np.concatenate([np.concatenate(row, axis=-1) for row in rows], axis=-2)
    return blocks[..., 0, :, :]


def extend_channel(h, k):
    """Zero-pad gains to length ``k`` (unused antennas are trailing zeros)."""
    h = np.asarray(h)
    if h.shape[-1] > k:
        raise ValueError(f"n_t={h.shape[-1]} exceeds K={k}")
    return np.pad(h, [(0, 0)] * (h.ndim - 1) + [(0, k - h.shape[-1])])


def modify_channel(hplus):
    """Swap the two halves of an extended gain vector."""
    hplus = np.asarray(hplus)
    k = hplus.shape[-1]
    if k % 2:
        raise ValueError("length must be even")
    return np.concatenate([hplus[..., k // 2 :], hplus[..., : k // 2]], axis=-1)


def upper_half(vec, generator):
    # the top rows of both templates are [A, +-B], with A and B the
    # manifolds of the two halves of the vector
    k = vec.shape[-1]
    halves = manifold(vec.reshape(vec.shape[:-1] + (2, k // 2)), generator)
    b = halves[..., 1, :, :]
    return np.concatenate([halves[..., 0, :, :], b if generator == "channel" else -b], axis=-1)


def recursive_minors(h, k):
    """Both minors by running the recursion on the gains themselves."""
    hp = extend_channel(h, k)
    return upper_half(hp, "channel"), upper_half(modify_channel(hp), "combining")


class TestGainPreprocessing:
    """The reference recursion's preprocessing of the gain vector."""

    def test_extend_no_padding(self):
        np.testing.assert_array_equal(extend_channel([1.0, 2.0], 2), [1.0, 2.0])

    def test_extend_pads_tail(self):
        np.testing.assert_array_equal(extend_channel([1.0, 2.0, 3.0], 4), [1, 2, 3, 0])
        np.testing.assert_array_equal(extend_channel([1.0], 4), [1, 0, 0, 0])

    def test_extend_rejects_overfull(self):
        # the minors themselves reject more antennas than K, and a K that
        # is not a power of two
        for h, k in (([1.0, 2.0, 3.0], 2), (np.ones(5), 4), ([1.0, 2.0], 6), ([1.0], 0)):
            with pytest.raises(ValueError):
                encoded_channel_minors(h, k)

    def test_modify_swaps_halves(self):
        np.testing.assert_array_equal(modify_channel([1.0, 2.0]), [2.0, 1.0])
        np.testing.assert_array_equal(modify_channel([1, 2, 3, 4]), [3, 4, 1, 2])

    def test_modify_is_involution(self):
        v = np.arange(8.0)
        np.testing.assert_array_equal(modify_channel(modify_channel(v)), v)

    def test_modify_rejects_odd(self):
        with pytest.raises(ValueError):
            modify_channel([1.0, 2.0, 3.0])


# rows 1, 2 and 16 of both 16x32 minors, hand-transcribed from the worked
# 32-antenna example (sign carried by the 1-based gain index)
GOLDEN_32 = {
    ("h1", 0): [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
        17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
    ],
    ("h1", 1): [
        2, -1, 4, -3, 6, -5, 8, -7, 10, -9, 12, -11, 14, -13, 16, -15,
        18, -17, 20, -19, 22, -21, 24, -23, 26, -25, 28, -27, 30, -29, 32, -31,
    ],
    ("h1", 15): [
        16, -15, -14, 13, -12, 11, 10, -9, -8, 7, 6, -5, 4, -3, -2, 1,
        32, -31, -30, 29, -28, 27, 26, -25, -24, 23, 22, -21, 20, -19, -18, 17,
    ],
    ("h2", 0): [
        17, -18, -19, 20, -21, 22, 23, -24, -25, 26, 27, -28, 29, -30, -31, 32,
        -1, 2, 3, -4, 5, -6, -7, 8, 9, -10, -11, 12, -13, 14, 15, -16,
    ],
    ("h2", 1): [
        18, 17, -20, -19, -22, -21, 24, 23, -26, -25, 28, 27, 30, 29, -32, -31,
        -2, -1, 4, 3, 6, 5, -8, -7, 10, 9, -12, -11, -14, -13, 16, 15,
    ],
    ("h2", 15): [
        32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17,
        -16, -15, -14, -13, -12, -11, -10, -9, -8, -7, -6, -5, -4, -3, -2, -1,
    ],
}


class TestMinorConstruction:
    def test_k2_base_case(self):
        h1, h2 = encoded_channel_minors(np.array([1.0 + 1j, 2.0 - 1j]), 2)
        np.testing.assert_array_equal(h1[0], [1.0 + 1j, 2.0 - 1j])
        np.testing.assert_array_equal(h2[0], [2.0 - 1j, -1.0 - 1j])

    @pytest.mark.parametrize("key", sorted(GOLDEN_32))
    def test_golden_rows_k32(self, key):
        h1, h2 = encoded_channel_minors(np.arange(1, 33), 32)
        minor = h1 if key[0] == "h1" else h2
        np.testing.assert_array_equal(minor[key[1]], GOLDEN_32[key])

    def test_first_minor_first_row_is_the_gain_vector(self):
        h1, _ = encoded_channel_minors(np.arange(1, 65), 64)
        np.testing.assert_array_equal(h1[0], np.arange(1, 65))

    def test_punctured_entries_are_zero(self):
        h1, h2 = encoded_channel_minors(np.arange(1, 6), 8)
        assert set(np.abs(h1).ravel()) == set(np.abs(h2).ravel()) == set(range(6))

    def test_zero_padding_transparency(self):
        rng = np.random.default_rng(9)
        h = crandn(rng, 5)
        short = encoded_channel_minors(h, 8)
        full = encoded_channel_minors(np.concatenate([h, np.zeros(3)]), 8)
        np.testing.assert_array_equal(short[0], full[0])
        np.testing.assert_array_equal(short[1], full[1])


class TestMinorTables:
    @pytest.mark.parametrize("k,n_t", TABLE_CASES)
    def test_gather_equals_recursion(self, k, n_t):
        rng = np.random.default_rng(k * n_t)
        # ten K=1024 channels would take the recursion past 500 MB
        batch = (5, 2) if k <= 256 else (2, 1)
        inputs = [
            crandn(rng, n_t),
            crandn(rng, *batch, n_t),
            rng.integers(-9, 10, size=(2, n_t)),
            np.arange(1, n_t + 1, dtype=np.int32),
        ]
        for h in inputs:
            for got, want in zip(encoded_channel_minors(h, k), recursive_minors(h, k)):
                assert got.dtype == want.dtype
                assert got.shape == h.shape[:-1] + (k // 2, k)
                np.testing.assert_array_equal(got, want)
                # a fancy-indexed gather puts the batch axes innermost,
                # which slows the decoder's matched filter several-fold
                assert got.flags.c_contiguous


class TestAugmentedAndApply:
    def test_alamouti_algebra(self):
        rng = np.random.default_rng(4)
        h = crandn(rng, 2)
        s = crandn(rng, 2)
        r = minors_model(h, s, 2)
        np.testing.assert_allclose(r[0], h[0] * s[0] + h[1] * s[1])
        np.testing.assert_allclose(r[1], h[1] * np.conj(s[0]) - h[0] * np.conj(s[1]))

    def test_matches_direct_transmission_k16(self):
        rng = np.random.default_rng(5)
        s = crandn(rng, 16)
        h = crandn(rng, 16)
        direct = encode(build_mother(16), s) @ h
        model = minors_model(h, s, 16)
        assert np.linalg.norm(model - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("k", ALL_K)
def test_factorisation_identity(k):
    # C(s) . h == [H1 s ; H2 conj(s)] for random gains and symbols
    rng = np.random.default_rng(k)
    s = crandn(rng, k)
    h = crandn(rng, k)
    direct = encode(build_mother(k), s) @ h
    model = minors_model(h, s, k)
    assert np.linalg.norm(model - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("k", ALL_K)
def test_channel_manifold_quasi_orthogonality(k):
    # the off-diagonal half-blocks of H1^H H1 + H2^T conj(H2), the product
    # the matched filter applies to a noiseless block, vanish
    rng = np.random.default_rng(k + 17)
    h1, h2 = encoded_channel_minors(crandn(rng, k), k)
    p = h1.conj().T @ h1 + h2.T @ np.conj(h2)
    h = k // 2
    off = max(np.abs(p[:h, h:]).max(), np.abs(p[h:, :h]).max())
    assert off <= 1e-10 * np.abs(p).max()


class TestReceivedBlocks:
    """``received_blocks`` against ``encode(...) @ gains^T`` block by block."""

    @pytest.mark.parametrize("k", [2**e for e in range(1, 11)])
    def test_matches_encode(self, k):
        rng = np.random.default_rng(500 + k)
        for n_t in sorted({1, min(3, k), k - 1, k}):
            s = crandn(rng, 3, k)
            tx = encode(puncture(build_mother(k), n_t), s)
            for n_r in (1, 2, 4):
                gains = crandn(rng, 3, n_r, n_t)
                want = tx @ gains.swapaxes(1, 2)
                got = received_blocks(s, gains, k)
                assert got.shape == (3, k, n_r)
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 1e-13, (k, n_t, n_r, err)

    @pytest.mark.parametrize("k", [2, 8, 64, 1024])
    def test_exact_on_gaussian_integers(self, k):
        # parts below 2^8 keep every sum an integer below K^3 2^15 < 2^53
        rng = np.random.default_rng(k + 1)
        for n_t in sorted({k, k - 1, min(3, k)}):
            z = rng.integers(-255, 256, size=(2, 2, k + n_t))
            z = z[0] + 1j * z[1]
            s, gains = z[:, :k], z[:, None, k:]
            want = encode(puncture(build_mother(k), n_t), s) @ gains.swapaxes(1, 2)
            assert np.array_equal(received_blocks(s, gains, k), want), (k, n_t)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            received_blocks(np.zeros((2, 4)), np.zeros((2, 1, 5)), 4)
        with pytest.raises(ValueError):
            received_blocks(np.zeros((3, 4)), np.zeros((2, 1, 4)), 4)
        with pytest.raises(ValueError):
            received_blocks(np.zeros(4), np.zeros((1, 1, 4)), 4)
