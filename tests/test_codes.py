"""Construction-side tests: manifold recursion, mother matrix, puncturing,
instantiation (the gather table against the grid definition) and Gram
block-orthogonality."""

from dataclasses import replace

import numpy as np
import pytest

from qostbc import (
    CodeEntry,
    abba_manifold,
    build_mother,
    encode,
    gram_check,
    puncture,
    structure_to_text,
)

ALL_K = [2, 4, 8, 16, 32, 64, 128, 256]
TABLE_CASES = [(k, n_t) for k in ALL_K for n_t in sorted({1, 3, k - 1, k}) if n_t <= k]


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestManifold:
    def test_symbol_scalar_case(self):
        m = abba_manifold([1 + 2j, 3 - 1j], "symbol")
        np.testing.assert_array_equal(m, [[1 + 2j, 3 - 1j], [-3 + 1j, 1 + 2j]])

    def test_combining_scalar_case(self):
        m = abba_manifold([5.0, 7.0], "combining")
        np.testing.assert_array_equal(m, [[5.0, -7.0], [7.0, 5.0]])

    def test_channel_scalar_case(self):
        m = abba_manifold([5.0, 7.0], "channel")
        np.testing.assert_array_equal(m, [[5.0, 7.0], [7.0, -5.0]])

    def test_symbol_order_two_expansion(self):
        # one hand expansion of the recursion: the 2x2 sub-blocks of the
        # 4x4 result are the 2x2 manifolds of the two halves
        m = abba_manifold([1, 2, 3, 4], "symbol")
        expected = np.array(
            [
                [1, 2, 3, 4],
                [-2, 1, -4, 3],
                [-3, -4, 1, 2],
                [4, -3, -2, 1],
            ]
        )
        np.testing.assert_array_equal(m, expected)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            abba_manifold([1.0, 2.0, 3.0], "symbol")

    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            abba_manifold([1.0, 2.0], "nope")

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_commutativity(self, k):
        # same-generator manifolds of independent vectors commute
        rng = np.random.default_rng(k)
        a = abba_manifold(crandn(rng, k), "symbol")
        b = abba_manifold(crandn(rng, k), "symbol")
        lhs = a @ b
        rhs = b @ a
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(0)
        v = crandn(rng, 3, 5, 8)
        batched = abba_manifold(v, "channel")
        assert batched.shape == (3, 5, 8, 8)
        np.testing.assert_allclose(batched[1, 2], abba_manifold(v[1, 2], "channel"))


class TestMotherMatrix:
    def test_k2_is_the_classic_two_antenna_code(self):
        st = build_mother(2)
        grid = [[str(st.entry(i, j)) for j in range(2)] for i in range(2)]
        assert grid == [[" s1", " s2"], ["-s2*", " s1*"]]

    def test_k4_bottom_rows(self):
        st = build_mother(4)
        row3 = [str(st.entry(2, j)).strip() for j in range(4)]
        row4 = [str(st.entry(3, j)).strip() for j in range(4)]
        assert row3 == ["-s3*", "s4*", "s1*", "-s2*"]
        assert row4 == ["-s4*", "-s3*", "s2*", "s1*"]

    @pytest.mark.parametrize("k", [k for k in ALL_K if k >= 4])
    def test_top_left_block(self, k):
        # unconjugated 2x2 block [[s1, s2], [-s2, s1]] for every k >= 4
        st = build_mother(k)
        assert st.entry(0, 0) == CodeEntry(1, 1, False)
        assert st.entry(0, 1) == CodeEntry(2, 1, False)
        assert st.entry(1, 0) == CodeEntry(2, -1, False)
        assert st.entry(1, 1) == CodeEntry(1, 1, False)

    @pytest.mark.parametrize("k", ALL_K)
    def test_dense_and_complete(self, k):
        st = build_mother(k)
        want = np.arange(1, k + 1)
        assert np.all(st.raw_index >= 1)  # dense: no zero raw symbols
        for i in range(k):
            np.testing.assert_array_equal(np.sort(st.raw_index[i, :]), want)
            np.testing.assert_array_equal(np.sort(st.raw_index[:, i]), want)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_mother(6)


class TestPuncture:
    def test_full_selection(self):
        st = puncture(build_mother(4), 4)
        assert list(st.selected_columns) == [1, 2, 3, 4]

    def test_leftmost_rule(self):
        st = puncture(build_mother(4), 3)
        assert list(st.selected_columns) == [1, 2, 3]

    def test_rows_keep_distinct_raw_indices(self):
        st = puncture(build_mother(8), 5)
        kept = st.raw_index[:, st.selected_columns - 1]
        for row in kept:
            assert len(set(row)) == 5

    @pytest.mark.parametrize("n_t", [0, 9])
    def test_out_of_range(self, n_t):
        with pytest.raises(ValueError):
            puncture(build_mother(8), n_t)


class TestEncode:
    def test_k2_example(self):
        c = encode(build_mother(2), np.array([1.0, 1.0j]))
        np.testing.assert_allclose(c, [[1.0, 1.0j], [1.0j, 1.0]])

    def test_k4_all_ones(self):
        c = encode(build_mother(4), np.ones(4, dtype=complex))
        assert np.all(np.isin(c.real, [-1.0, 1.0]))
        assert np.all(c.imag == 0)

    def test_instantiated_completeness(self):
        # distinct primes as real parts make raw symbols identifiable by
        # magnitude, so each row/column must contain every prime once
        primes = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0])
        c = encode(build_mother(8), primes.astype(complex))
        for i in range(8):
            np.testing.assert_array_equal(np.sort(np.abs(c[i, :])), primes)
            np.testing.assert_array_equal(np.sort(np.abs(c[:, i])), primes)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode(build_mother(4), np.ones(3, dtype=complex))

    def test_conjugate_linearity(self):
        # unconjugated entries scale with alpha, conjugated entries with
        # conj(alpha); splitting the symbol vector checks both paths
        rng = np.random.default_rng(2)
        st = build_mother(8)
        s = crandn(rng, 8)
        t = crandn(rng, 8)
        alpha, beta = 0.7 - 0.3j, -1.1 + 2.2j
        combo = encode(st, alpha * s + beta * t)
        parts = np.where(
            st.conjugated,
            np.conj(alpha) * encode(st, s) + np.conj(beta) * encode(st, t),
            alpha * encode(st, s) + beta * encode(st, t),
        )
        np.testing.assert_allclose(combo, parts, atol=1e-12)

    def test_batched_symbols(self):
        rng = np.random.default_rng(3)
        st = puncture(build_mother(4), 3)
        s = crandn(rng, 10, 4)
        batch = encode(st, s)
        assert batch.shape == (10, 4, 3)
        np.testing.assert_allclose(batch[4], encode(st, s[4]))


def grid_encode(structure, s):
    """Definition of the transmit matrix straight from the symbolic grids."""
    vals = np.asarray(s)[..., structure.raw_index - 1] * structure.sign
    vals = np.where(structure.conjugated, np.conj(vals), vals)
    return vals[..., :, structure.selected_columns - 1]


class TestEncodeTable:
    @pytest.mark.parametrize("k,n_t", TABLE_CASES)
    def test_gather_equals_grid_definition(self, k, n_t):
        rng = np.random.default_rng(k + n_t)
        st = puncture(build_mother(k), n_t)
        inputs = [
            crandn(rng, k),
            crandn(rng, 5, 2, k),
            rng.integers(-9, 10, size=(3, k)),
            rng.integers(0, 10, size=k).astype(np.uint8),
        ]
        for s in inputs:
            got, want = encode(st, s), grid_encode(st, s)
            assert got.dtype == want.dtype
            assert got.shape == s.shape[:-1] + (k, n_t)
            np.testing.assert_array_equal(got, want)
            # a fancy-indexed gather puts the batch axes innermost, which
            # slows every matmul on the transmit matrix
            assert got.flags.c_contiguous

    def test_grids_and_table_are_read_only(self):
        st = build_mother(4)
        for grid in (st.raw_index, st.sign, st.conjugated, st.selected_columns, st.table):
            with pytest.raises(ValueError):
                grid[0] = 1

    def test_replace_rebuilds_table(self):
        st = build_mother(8)
        assert puncture(st, 3).table.shape == (8, 3)
        s = np.arange(1, 9) * 1j
        np.testing.assert_array_equal(encode(replace(st, sign=-st.sign), s), -encode(st, s))

    def test_table_ignores_later_caller_writes(self):
        st = build_mother(4)
        sign = np.array(st.sign)
        own = replace(st, sign=sign)
        sign[:] = -1
        np.testing.assert_array_equal(own.sign, st.sign)
        np.testing.assert_array_equal(encode(own, np.arange(4.0)), encode(st, np.arange(4.0)))


class TestGram:
    def test_k2_unitary(self):
        c = encode(build_mother(2), np.array([1.0, 1.0j]))
        top, res = gram_check(c)
        np.testing.assert_allclose(top, [[2.0]])
        assert res < 1e-14

    @pytest.mark.parametrize("k", [8, 64])
    def test_off_block_vanishes(self, k):
        rng = np.random.default_rng(k)
        c = encode(build_mother(k), crandn(rng, k))
        _, res = gram_check(c)
        assert res < 1e-12 * np.linalg.norm(c) ** 2

    @pytest.mark.parametrize("k", ALL_K)
    def test_diagonal_blocks_match_minor_energies(self, k):
        rng = np.random.default_rng(k + 1)
        s = crandn(rng, k)
        c = encode(build_mother(k), s)
        top, _ = gram_check(c)
        h = k // 2
        a, b = c[:h, :h], c[:h, h:]
        np.testing.assert_allclose(top, a @ a.conj().T + b @ b.conj().T, atol=1e-10)


def test_structure_dump_format():
    text = structure_to_text(puncture(build_mother(4), 2))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["s1", "s2"]
    assert lines[2].split() == ["-s3*", "s4*"]
