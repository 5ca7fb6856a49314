"""Decoder tests: permutation split, stagewise combining, reduction chain,
output ordering, round trips, the fixed basis D W against a least-squares
oracle and a popcount construction, the Alamouti combiner and noise
behaviour."""

import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qostbc import (
    DegenerateChannelError,
    build_mother,
    decode_batch,
    encode,
    encoded_channel_minors,
    permutation_indexes,
    puncture,
    verify,
    walsh_basis,
)
import qostbc.channels as channels
import qostbc.codes as codes
import qostbc.harness as harness
from qostbc.harness import reduction_residuals
from oracles import (
    chain_decode, channel_gram, matched_filter, real_form, symbol_order, sylvester, walsh_dw,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def decode_block(received, gains):
    """:func:`decode_batch` on one block: ``(K,)`` or ``(K, n_r)`` samples and
    ``(n_t,)`` or ``(n_r, n_t)`` gains; returns the estimates and eigenvalues."""
    est, lam = decode_batch(np.reshape(received, (len(received), -1))[None], np.atleast_2d(gains)[None])
    return est[0], lam[0]


def first_stage(r, h):
    """The two half-length combinations of one block on one antenna."""
    k = len(r)
    c = matched_filter(np.asarray(r)[None], *encoded_channel_minors(h, k))[0]
    return c[: k // 2], c[k // 2 :]


def reduced_matrix(h, k):
    """First-order reduced matrix ``conj(H1 H1^H + H2 H2^H) / 2`` of one antenna."""
    h1, h2 = encoded_channel_minors(h, k)
    return np.conj(h1 @ h1.conj().T + h2 @ h2.conj().T) / 2


def split_blocks(g):
    """Largest off-block magnitude of ``g`` along the permutation, and its diagonal blocks."""
    q0, q1 = (p - 1 for p in permutation_indexes(g.shape[-1]))
    off = max(np.abs(g[np.ix_(q0, q1)]).max(), np.abs(g[np.ix_(q1, q0)]).max())
    return off, g[np.ix_(q0, q0)], g[np.ix_(q1, q1)]


class TestPermutationIndexes:
    @pytest.mark.parametrize(
        "n,p0,p1",
        [
            (2, [1], [2]),
            (4, [1, 4], [2, 3]),
            (8, [1, 4, 6, 7], [2, 3, 5, 8]),
            (16, [1, 4, 6, 7, 10, 11, 13, 16], [2, 3, 5, 8, 9, 12, 14, 15]),
        ],
    )
    def test_listed_sets(self, n, p0, p1):
        got0, got1 = permutation_indexes(n)
        assert list(got0) == p0
        assert list(got1) == p1

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_partition(self, n):
        p0, p1 = permutation_indexes(n)
        assert len(p0) == len(p1) == n // 2
        assert sorted(np.concatenate([p0, p1])) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 256])
    def test_prefix_consistency(self, n):
        # the sets for size n are prefixes of the sets for size 2n, which
        # is what makes the in-decoder prefix slicing valid
        for big, small in zip(permutation_indexes(2 * n), permutation_indexes(n)):
            np.testing.assert_array_equal(big[: n // 2], small)

    def test_rejects_bad_sizes(self):
        for bad in (3, 6, 1):
            with pytest.raises(ValueError):
                permutation_indexes(bad)


class TestFirstStage:
    def test_alamouti_combining(self):
        rng = np.random.default_rng(1)
        h = crandn(rng, 2)
        s = crandn(rng, 2)
        r = encode(build_mother(2), s) @ h
        r1, r2 = first_stage(r, h)
        energy = np.sum(np.abs(h) ** 2)
        np.testing.assert_allclose(r1, energy * s[0])
        np.testing.assert_allclose(r2, energy * s[1])

    def test_annihilates_other_half(self):
        # transmitting only the first half of the symbols drives the
        # second combination to algebraic zero
        rng = np.random.default_rng(2)
        h = crandn(rng, 8)
        s = crandn(rng, 8)
        s[4:] = 0.0
        r = encode(build_mother(8), s) @ h
        _, r2 = first_stage(r, h)
        assert np.abs(r2).max() <= 1e-13 * np.abs(r).max()

    def test_reduced_matrix_identity(self):
        rng = np.random.default_rng(3)
        h = crandn(rng, 8)
        s = crandn(rng, 8)
        r = encode(build_mother(8), s) @ h
        r1, r2 = first_stage(r, h)
        red = reduced_matrix(h, 8)
        np.testing.assert_allclose(r1, red @ s[:4], rtol=1e-12)
        np.testing.assert_allclose(r2, red @ s[4:], rtol=1e-12)

    def test_equivalent_matrices_agree(self):
        # building the half-size matrix from the left columns or from the
        # right columns of the minors gives the same result
        rng = np.random.default_rng(4)
        for k in (4, 16, 64):
            h1, h2 = encoded_channel_minors(crandn(rng, k), k)
            h = k // 2
            upper = h1[:, :h].conj().T @ h1 + h2[:, :h].T @ h2.conj()
            lower = h1[:, h:].conj().T @ h1 + h2[:, h:].T @ h2.conj()
            m1, m2 = upper[:, :h], lower[:, h:]
            assert np.abs(m1 - m2).max() <= 1e-12 * np.abs(m1).max()
            # and the complementary halves are algebraic zeros
            assert np.abs(upper[:, h:]).max() <= 1e-12 * np.abs(m1).max()
            assert np.abs(lower[:, :h]).max() <= 1e-12 * np.abs(m1).max()


class TestReduceChannel:
    def test_k2_scalar(self):
        rng = np.random.default_rng(5)
        h = crandn(rng, 2)
        np.testing.assert_allclose(reduced_matrix(h, 2), [[np.sum(np.abs(h) ** 2)]])

    def test_k4_structure(self):
        rng = np.random.default_rng(6)
        red = reduced_matrix(crandn(rng, 4), 4)
        assert red.shape == (2, 2)
        assert abs(red[0, 0].imag) < 1e-12
        np.testing.assert_allclose(red[0, 0], red[1, 1], rtol=1e-12)
        np.testing.assert_allclose(red[0, 1], -red[1, 0], rtol=1e-12)

    def test_k8_diagonal_is_total_energy(self):
        rng = np.random.default_rng(7)
        h = crandn(rng, 8)
        red = reduced_matrix(h, 8)
        np.testing.assert_allclose(np.diag(red), np.sum(np.abs(h) ** 2), rtol=1e-12)


class TestHigherOrderReduce:
    def test_terminal_scalar_case(self):
        # at K=4 one split of M^T M leaves 1x1 blocks, which end the chain
        rng = np.random.default_rng(8)
        g = reduced_matrix(crandn(rng, 4), 4)
        g = g.T @ g
        off, b0, b1 = split_blocks(g)
        assert b0.shape == b1.shape == (1, 1)
        assert off <= 1e-12 * np.abs(g).max()
        assert reduction_residuals(4, rng) == [(1, 0)]

    def test_k8_chain_block_diagonal(self):
        # the float products the oracle chain forms split at both orders
        rng = np.random.default_rng(9)
        a = b = reduced_matrix(crandn(rng, 8), 8)
        sizes = []
        while a.shape[-1] >= 2:
            g = a.T @ b
            off, a, b = split_blocks(g)
            assert off <= 1e-12 * np.abs(g).max()
            sizes.append(a.shape[-1])
        assert sizes == [2, 1]

    @pytest.mark.parametrize("k", [8, 16, 64, 256, 512])
    def test_block_vanishing_every_order(self, k):
        rng = np.random.default_rng(k)
        res = reduction_residuals(k, rng)
        assert [order for order, _ in res] == list(range(1, int(np.log2(k))))
        for order, count in res:
            assert count == 0, (k, order, count)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_split_blocks_against_ix(self, n):
        # the one split of the exact reduction check, on a batch of
        # matrices: four blocks along the permutation sets
        g = np.arange(3 * n * n).reshape(3, n, n)
        q0, q1 = (p - 1 for p in permutation_indexes(n))
        (g00, g11), (g01, g10) = harness._split_blocks(g, q0, q1)
        for got, (a, b) in zip((g00, g11, g01, g10), ((q0, q0), (q1, q1), (q0, q1), (q1, q0))):
            assert np.array_equal(got, np.stack([m[np.ix_(a, b)] for m in g]))

    def test_cross_product_commutes(self):
        rng = np.random.default_rng(10)
        red = reduced_matrix(crandn(rng, 16), 16)
        _, b0, b1 = split_blocks(red.T @ red)
        lhs = b0.T @ b1
        rhs = b1.T @ b0
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


class TestSymbolOrder:
    @pytest.mark.parametrize(
        "k,order",
        [
            (2, [1, 2]),
            (4, [1, 2, 3, 4]),
            (8, [1, 4, 2, 3, 5, 8, 6, 7]),
        ],
    )
    def test_known_orders(self, k, order):
        assert list(symbol_order(k)) == order

    @pytest.mark.parametrize("k", [16, 32, 128])
    def test_is_permutation(self, k):
        assert sorted(symbol_order(k)) == list(range(1, k + 1))

    def test_matches_decoder_trace(self):
        # decoding the unit vector e_j noiselessly lights up exactly the
        # raw output position that the order table assigns to symbol j
        rng = np.random.default_rng(12)
        k = 16
        h = crandn(rng, k)
        st = build_mother(k)
        order = symbol_order(k)
        for j in (0, 5, 11):
            s = np.zeros(k, dtype=complex)
            s[j] = 1.0
            r = encode(st, s) @ h
            raw = chain_decode(r, h, k)[2]
            hot = int(np.argmax(np.abs(raw)))
            assert order[hot] == j + 1
            others = np.delete(np.abs(raw), hot)
            assert others.max() <= 1e-10 * np.abs(raw[hot])


class TestDecode:
    def test_alamouti_exact(self):
        rng = np.random.default_rng(13)
        s = crandn(rng, 2)
        h = crandn(rng, 2)
        r = encode(build_mother(2), s) @ h
        est, lam = decode_block(r, h)
        np.testing.assert_allclose(est, s, rtol=1e-12)
        np.testing.assert_allclose(lam, [np.sum(np.abs(h) ** 2)], rtol=1e-12)
        est, gain, _ = chain_decode(r, h, 2)
        np.testing.assert_allclose(est, s, rtol=1e-12)
        np.testing.assert_allclose(gain, np.sum(np.abs(h) ** 2), rtol=1e-12)

    def test_k64_four_antennas(self):
        rng = np.random.default_rng(14)
        s = crandn(rng, 64)
        hh = crandn(rng, 4, 64)
        r = encode(build_mother(64), s) @ hh.T
        est = decode_block(r, hh)[0]
        assert np.linalg.norm(est - s) <= 1e-9 * np.linalg.norm(s)

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("n_r", [1, 2, 4])
    def test_round_trip_grid(self, k, n_r):
        rng = np.random.default_rng(1000 + k + n_r)
        for n_t in sorted({k, max(1, k - 1), min(3, k)}):
            s = crandn(rng, k)
            hh = crandn(rng, n_r, n_t)
            r = encode(puncture(build_mother(k), n_t), s) @ hh.T
            est = decode_block(r, hh)[0]
            err = np.linalg.norm(est - s) / np.linalg.norm(s)
            assert err <= 1e-9, (k, n_t, n_r, err)

    def test_unit_vector_raw_position_k8(self):
        rng = np.random.default_rng(15)
        h = crandn(rng, 8)
        s = np.zeros(8, dtype=complex)
        s[3] = 1.0  # symbol s4: raw position 2 (1-based) in [1,4,2,3,...]
        r = encode(build_mother(8), s) @ h
        mags = np.abs(chain_decode(r, h, 8)[2])
        assert np.argmax(mags) == 1
        assert np.delete(mags, 1).max() <= 1e-10 * mags[1]

    def test_gain_identical_across_symbols(self):
        rng = np.random.default_rng(16)
        k = 16
        s = crandn(rng, k)
        h = crandn(rng, 2, k)
        r = encode(build_mother(k), s) @ h.T
        ratios = chain_decode(r, h, k)[2] / s[symbol_order(k) - 1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
        assert abs(ratios[0].imag) <= 1e-10 * abs(ratios[0])
        assert ratios[0].real > 0

    def test_unbiased_under_noise(self):
        rng = np.random.default_rng(17)
        k, n_r, trials = 8, 2, 4000
        s = crandn(rng, k)
        hh = crandn(rng, n_r, k)
        clean = encode(build_mother(k), s) @ hh.T
        noisy = clean[None] + 0.3 * crandn(rng, trials, k, n_r)
        est = decode_batch(noisy, np.broadcast_to(hh, (trials, n_r, k)))[0]
        mean = est.mean(axis=0)
        sem = est.std(axis=0) / np.sqrt(trials)
        assert np.all(np.abs(mean - s) <= 4.0 * sem + 1e-12)

    @pytest.mark.parametrize("k", [1, 6, 12])
    def test_rejects_k_not_a_power_of_two(self, k):
        with pytest.raises(ValueError, match="power of two"):
            decode_batch(np.ones((1, k, 1), dtype=complex), np.ones((1, 1, 1), dtype=complex))

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateChannelError):
            decode_block(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(18)
        k, n_r, nb = 8, 3, 5
        s = crandn(rng, nb, k)
        hh = crandn(rng, nb, n_r, k)
        rx = np.einsum("bka,bia->bki", encode(build_mother(k), s), hh)
        est = decode_batch(rx, hh)[0]
        for b in range(nb):
            single = decode_block(rx[b], hh[b])[0]
            np.testing.assert_allclose(est[b], single, rtol=1e-10)


class TestCombinerWeights:
    def test_alamouti_closed_form(self):
        # at K=2 the decoder is Alamouti's combiner: the estimate of s1 reads
        # (h1^* r1 + h2 r2^*) / energy, that of s2 (h2^* r1 - h1 r2^*) / energy
        rng = np.random.default_rng(19)
        h = crandn(rng, 2)
        r = crandn(rng, 2)
        energy = np.sum(np.abs(h) ** 2)
        want = [
            (np.conj(h[0]) * r[0] + h[1] * np.conj(r[1])) / energy,
            (np.conj(h[1]) * r[0] - h[0] * np.conj(r[1])) / energy,
        ]
        np.testing.assert_allclose(decode_block(r, h)[0], want, rtol=1e-12)

    def test_alamouti_gain_tracks_channel_energy(self):
        # the absolute combining gain equals the channel energy for the
        # two-antenna code, for any draw
        rng = np.random.default_rng(21)
        for _ in range(5):
            h = crandn(rng, 2)
            s = crandn(rng, 2)
            r = encode(build_mother(2), s) @ h
            gain = chain_decode(r, h, 2)[1]
            np.testing.assert_allclose(gain, np.sum(np.abs(h) ** 2), rtol=1e-10)


def lstsq_oracle(received, gains, k):
    """Least-squares estimate and real model ``A`` of one block.

    ``A`` is built column by column from ``encode`` of the unit vectors
    ``e_j`` and ``1j e_j``: ``[Re r; Im r] = A [Re s; Im s]``.
    """
    n_r, n_t = gains.shape
    structure = puncture(build_mother(k), n_t)
    a = np.empty((2 * k * n_r, 2 * k))
    for j in range(2 * k):
        s = np.zeros(k, dtype=complex)
        s[j % k] = 1.0 if j < k else 1j
        col = encode(structure, s) @ gains.T
        a[:, j] = np.concatenate([col.real.ravel(), col.imag.ravel()])
    y = np.concatenate([received.real.ravel(), received.imag.ravel()])
    x = np.linalg.lstsq(a, y, rcond=None)[0]
    return x[:k] + 1j * x[k:], a


def one_flipped(half):
    """``D W`` with its last entry negated: no longer orthogonal."""
    v = walsh_dw(half)
    v[-1, -1] *= -1
    return v


def doubled(half):
    """``2 D W``: diagonalises every ``P``, but ``V^H V = 2K I``."""
    return 2 * walsh_dw(half)


class TestFixedBasis:
    """The decoder's fixed basis ``V = D W`` of :func:`walsh_basis`."""

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("n_r", [1, 2, 4])
    def test_matches_lstsq_oracle(self, k, n_r):
        rng = np.random.default_rng(3000 + k + n_r)
        for n_t in sorted({1, min(3, k), max(1, 3 * k // 4), k - 1, k}):
            s = crandn(rng, k)
            gains = crandn(rng, n_r, n_t)
            r = encode(puncture(build_mother(k), n_t), s) @ gains.T + 0.3 * crandn(rng, k, n_r)
            want, _ = lstsq_oracle(r, gains, k)
            got = decode_block(r, gains)[0]
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-12, (k, n_t, n_r, err)

    @pytest.mark.parametrize("k", [2, 4, 16, 64, 128])
    def test_diagonalises_every_gram(self, k):
        rng = np.random.default_rng(4000 + k)
        signs = real_form(walsh_dw(k // 2))
        assert set(np.unique(signs)) <= {-1.0, 0.0, 1.0}
        q = signs / np.sqrt(k / 2)
        assert np.abs(q.T @ q - np.eye(2 * k)).max() <= 1e-14
        for n_r, n_t in ((1, k), (2, max(1, 3 * k // 4))):
            gains = crandn(rng, n_r, n_t)
            _, a = lstsq_oracle(np.zeros((k, n_r), dtype=complex), gains, k)
            gram = a.T @ a
            d = q.T @ gram @ q
            lam = np.diag(d)
            assert np.abs(d - np.diag(lam)).max() <= 1e-12 * lam.max()
            # the decoder's eigenvalues, one per group of four columns
            np.testing.assert_allclose(
                decode_block(np.zeros((k, n_r)), gains)[1], lam[::4],
                rtol=0, atol=1e-12 * lam.max()
            )

    def test_built_exactly_without_eigh(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the fixed basis must not need an eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        walsh_basis.cache_clear()
        for half in (2**e for e in range(10)):
            v = walsh_basis(half)
            assert not v.flags.writeable
            assert np.array_equal(v, walsh_dw(half)), half
            assert np.array_equal(v.conj().T @ v, half * np.eye(half)), half

    @pytest.mark.parametrize("wrong", [sylvester, one_flipped, doubled], ids=lambda f: f.__name__)
    def test_verify_rejects_a_wrong_basis(self, wrong, monkeypatch):
        # W without the phases D, one flipped entry, or twice D W as the
        # factor of every Walsh product: the decoder and the check both use
        # the wrong basis, dense up to K = 128 and factored at K = 256
        monkeypatch.setattr(codes, "walsh_basis", wrong)
        checks = [c for c in verify(256).checks if c.name == "walsh-matched-filter" and c.k >= 4]
        assert [c.k for c in checks] == [2**e for e in range(2, 9)]
        assert not any(c.passed for c in checks), [c.line() for c in checks if c.passed]

    @pytest.mark.parametrize("wrong", [sylvester, one_flipped], ids=lambda f: f.__name__)
    def test_verify_rejects_a_wrong_forward_basis(self, wrong, monkeypatch):
        # the simulator's forward model with W without the phases D, or one
        # flipped entry, as the factor of its Walsh products no longer
        # matches the code's own encoder
        monkeypatch.setattr(codes, "walsh_basis", wrong)
        report = verify(256)
        forward = [c for c in report.checks if c.name.startswith("walsh-forward-model")]
        assert {c.k for c in forward} == {2**e for e in range(1, 9)}
        assert not any(c.passed for c in forward if c.k >= 4), [
            c.line() for c in forward if c.passed and c.k >= 4]

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_eigenvalues_in_walsh_order(self, k):
        # lambda_e = sum_r |(W D h_a)_e|^2 + |(W D h_b)_e|^2, with the
        # Sylvester-Hadamard W[i, j] = (-1)^popcount(i & j), D =
        # diag(i^popcount(j)), and h_a, h_b the two halves of the gains
        # zero-padded to K
        half = k // 2
        v = walsh_dw(half)
        rng = np.random.default_rng(4200 + k)
        for n_t in sorted({1, min(3, k), k - 1, k}):
            gains = crandn(rng, 4, n_t)
            padded = np.zeros((4, k), dtype=complex)
            padded[:, :n_t] = gains
            per_antenna = np.abs(padded[:, :half] @ v) ** 2 + np.abs(padded[:, half:] @ v) ** 2
            for n_r in (1, 2, 4):
                want = per_antenna[:n_r].sum(axis=0)
                got = decode_block(np.zeros((k, n_r)), gains[:n_r])[1]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256, 512])
    def test_eigenvalues_match_gram_diagonal(self, k):
        # the decoder's eigenvalues, read off the channel, against diag(Q^T G Q)
        # of the Gram itself; the n_r = 1, 2, 4 Grams are prefix sums of
        # single-antenna Grams
        rng = np.random.default_rng(4100 + k)
        q4 = real_form(walsh_dw(k // 2))[:, ::4] / np.sqrt(k / 2)
        for n_t in sorted({1, min(3, k), k - 1, k}):
            gains = crandn(rng, 4, n_t)
            per_antenna = [np.einsum("ij,ij->j", q4, channel_gram(h, k) @ q4) for h in gains]
            for n_r in (1, 2, 4):
                want = np.sum(per_antenna[:n_r], axis=0)
                got = decode_block(np.zeros((k, n_r)), gains[:n_r])[1]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("n_r", [1, 2])
    @pytest.mark.parametrize("ratio", [1e-10, 1e-14])
    def test_nearly_singular_eigenvalues_exact(self, k, n_r, ratio):
        # Channels whose stacked [Re h; -Im h] is nearly orthogonal to the
        # sign columns of group 0, so lambda_0 / lambda_max is about
        # `ratio`.  The exact eigenvalues come from the Gram of the float
        # inputs in rational arithmetic: A has entries +-Re h, +-Im h and
        # 0 exactly, and every sign column is an exact eigenvector of it.
        rng = np.random.default_rng(int(6000 + k + 10 * n_r - np.log10(ratio)))
        signs = real_form(walsh_dw(k // 2))
        s0 = signs[:, :4]
        x = np.empty((n_r, 2 * k))
        z = np.empty((n_r, 4))
        for r in range(n_r):
            x[r] = rng.standard_normal(2 * k)
            x[r] -= s0 @ (s0.T @ x[r]) / (k / 2)
            z[r] = rng.standard_normal(4)
        # inject a group-0 component with lambda_0 = ratio * |x|^2: the other
        # K/2 - 1 eigenvalues sum to (K/2) |x|^2, so lambda_max >= |x|^2 and
        # lambda_0 / lambda_max <= ratio by construction
        x += np.sqrt(ratio * np.sum(x**2)) / ((k / 2) * np.linalg.norm(z)) * (z @ s0.T)
        gains = x[:, :k] - 1j * x[:, k:]
        _, a = lstsq_oracle(np.zeros((k, n_r), dtype=complex), gains, k)
        fa = [[Fraction(v) for v in row] for row in a]
        gram = [[sum(fa[i][r] * fa[i][c] for i in range(len(fa))) for c in range(2 * k)]
                for r in range(2 * k)]
        exact = []
        for g in range(k // 2):
            cols = [[int(v) for v in signs[:, 4 * g + j]] for j in range(4)]
            lam = sum(cols[0][i] * gram[i][j] * cols[0][j]
                      for i in range(2 * k) for j in range(2 * k)) / Fraction(k, 2)
            for col in cols:
                assert [sum(gram[i][j] * col[j] for j in range(2 * k)) for i in range(2 * k)] == [
                    lam * v for v in col]
            exact.append(lam)
        assert min(exact) / max(exact) < 10 * ratio  # the case is as ill-conditioned as meant
        got = decode_block(np.zeros((k, n_r)), gains)[1]
        err = max(abs(Fraction(float(v)) - e) / e for v, e in zip(got, exact))
        assert err <= 1e-9, float(err)

    def test_concurrent_first_use_decodes(self):
        # two threads decoding at a K whose basis is not built yet
        k = 32
        walsh_basis.cache_clear()
        rng = np.random.default_rng(23)
        s, h = crandn(rng, k), crandn(rng, k)
        r = encode(build_mother(k), s) @ h
        barrier = threading.Barrier(2)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(decode_block(r, h)[0])

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 2
        for est in results:
            np.testing.assert_allclose(est, s, rtol=1e-12)

    def test_singular_gram_rejected(self):
        # Gram eigenvalues {0, 4}: the two gains cancel on one symbol group
        h = np.array([1.0, 1.0j, 0.0, 0.0])
        r = encode(build_mother(4), np.ones(4, dtype=complex)) @ h
        with pytest.raises(DegenerateChannelError):
            decode_block(r, h)
        rng = np.random.default_rng(24)
        gains = np.stack([crandn(rng, 1, 4), h[None]])
        with pytest.raises(DegenerateChannelError):
            decode_batch(np.stack([r, r])[..., None], gains)

    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    def test_chain_reference_agrees(self, k):
        rng = np.random.default_rng(5000 + k)
        s = crandn(rng, k)
        hh = crandn(rng, 2, k)
        r = encode(build_mother(k), s) @ hh.T + 0.3 * crandn(rng, k, 2)
        chain = chain_decode(r, hh, k)[0]
        fixed = decode_block(r, hh)[0]
        assert np.linalg.norm(chain - fixed) <= 1e-10 * np.linalg.norm(fixed)


class TestWalshDomain:
    """``decode_batch`` combines per Walsh index, on transforms of ``r`` and the gains."""

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256, 1024])
    def test_gain_transform_is_reversed_walsh_order(self, k):
        # g = V^H h per half, and (V^H h)_e = (V^T h)_{e xor (K/2 - 1)}:
        # conj(D) = D diag((-1)^popcount(j)) turns row e of W into row
        # e xor (K/2 - 1); on Gaussian integers every product is exact
        half = k // 2
        v = walsh_dw(half)
        rng = np.random.default_rng(4300 + k)

        def energy(t):
            return (np.square(t.real) + np.square(t.imag)).sum(axis=(1, 2))

        for n_t in sorted({1, min(3, k), k - 1, k}):
            gains = rng.integers(-9, 10, (2, 3, n_t)) + 1j * rng.integers(-9, 10, (2, 3, n_t))
            padded = np.zeros((2, 3, 2, half), dtype=complex)
            padded.reshape(2, 3, k)[..., :n_t] = gains
            # laid out (2, n_r, B, K/2): half and receive antenna first
            g = channels._gain_transforms(gains, k).transpose(2, 1, 0, 3)
            assert np.array_equal(g, padded @ v.conj())
            flip = np.arange(half) ^ (half - 1)
            assert np.array_equal(flip, np.arange(half)[::-1])
            assert np.array_equal(g, (padded @ v)[..., flip])
            # so the eigenvalues in Walsh order, sum |V^T h|^2, are sum |g|^2 reversed
            lam = decode_batch(np.zeros((2, k, 3)), gains)[1]
            assert np.array_equal(lam, energy(padded @ v))
            assert np.array_equal(lam, energy(g)[:, ::-1])

    @pytest.mark.parametrize("k", [2, 4, 128])
    def test_gathers_no_minors(self, k, monkeypatch):
        def no_minors(*args):
            raise AssertionError("the decoder must not gather the channel minors")

        monkeypatch.setattr(channels, "_minor_indices", no_minors)
        rng = np.random.default_rng(4400 + k)
        n_t = max(1, 3 * k // 4)
        s = crandn(rng, 4, k)
        gains = crandn(rng, 4, 2, n_t)
        est = decode_batch(channels.received_blocks(s, gains), gains)[0]
        assert np.linalg.norm(est - s) <= 1e-12 * np.linalg.norm(s)
        cfg = harness.ExperimentConfig(k=k, n_t=n_t, n_r=2, esno_db=(10.0,), trials=64,
                                       batch=32, target_errors=10**9, seed=5)
        assert [row.trials for row in harness.run_sweep(cfg).rows] == [64]

    @pytest.mark.parametrize("k", [2**e for e in range(1, 10)])
    def test_zero_padding_is_exact(self, k):
        # verify's round trips run as one batch: each (n_t, n_r) block's
        # gains zero-padded to 4 x K.  The forward model forms each padded
        # block bit for bit as alone, zeros on the padded antennas; the
        # decoder agrees with the unpadded call to a few ulp, not bit for
        # bit: numpy may order its sum over the antennas differently for a
        # batch than for one block (at K=2, n_t=1, n_r=4 here)
        rng = np.random.default_rng(4600 + k)
        pairs = [(n_t, n_r) for n_t in sorted({k, k - 1, min(3, k)}) for n_r in (1, 2, 4)]
        sym = crandn(rng, len(pairs), k)
        gains = np.zeros((len(pairs), 4, k), complex)
        alone = [crandn(rng, n_r, n_t) for n_t, n_r in pairs]
        for i, ((n_t, n_r), g) in enumerate(zip(pairs, alone)):
            gains[i, :n_r, :n_t] = g
        rx = channels.received_blocks(sym, gains)
        est, lam = decode_batch(rx, gains)
        for i, ((n_t, n_r), g) in enumerate(zip(pairs, alone)):
            one = channels.received_blocks(sym[i : i + 1], g[None])[0]
            assert np.array_equal(rx[i, :, :n_r], one), (n_t, n_r)
            assert not rx[i, :, n_r:].any(), (n_t, n_r)
            est1, lam1 = decode_batch(one[None], g[None])
            np.testing.assert_allclose(est[i], est1[0], rtol=1e-14, atol=0, err_msg=f"{n_t}, {n_r}")
            np.testing.assert_allclose(lam[i], lam1[0], rtol=1e-14, atol=0, err_msg=f"{n_t}, {n_r}")

    def test_round_trip_k4096_in_linear_memory(self):
        # n_t = K, n_r = 2, B = 2: a noiseless round trip through the
        # simulator's forward model, and a tracemalloc peak, once the basis
        # is cached, of at most eight complex arrays the size of the
        # (B, K, n_r) input: the decoder holds the gain transforms, the
        # transforms of r, the combiner terms and their stack at once, and
        # nothing of size K^2 but the cached V
        k, n_r, nbatch = 4096, 2, 2
        rng = np.random.default_rng(4500)
        s = crandn(rng, nbatch, k)
        gains = crandn(rng, nbatch, n_r, k)
        rx = channels.received_blocks(s, gains)
        decode_batch(rx, gains)  # caches V
        tracemalloc.start()
        try:
            est = decode_batch(rx, gains)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = np.linalg.norm(est - s, axis=1) / np.linalg.norm(s, axis=1)
        assert err.max() <= harness.ROUNDTRIP_TOL, err
        assert peak <= 8 * rx.nbytes, (peak, rx.nbytes)


def test_decode_cost_scales_subcubically():
    # wall-clock sanity: doubling K twice must stay well under the
    # K^2 log K envelope times a generous constant (the warm-up builds the
    # cached Walsh bases of both K, outside the timed calls)
    rng = np.random.default_rng(22)

    def run(k):
        s = crandn(rng, k)
        h = crandn(rng, 1, k)
        r = encode(build_mother(k), s) @ h.T
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            decode_block(r, h)
            best = min(best, time.perf_counter() - t0)
        return best

    run(64)  # warm-up
    run(256)
    t64 = run(64)
    t256 = run(256)
    envelope = (256 / 64) ** 2 * (np.log2(256) / np.log2(64))
    assert t256 <= 6.0 * envelope * t64 + 0.05
