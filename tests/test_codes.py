"""Construction-side tests: manifold recursion, mother matrix, puncturing,
instantiation (the gather table against the numeric recursion), Gram
block-orthogonality and the factored Walsh product."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qostbc import (
    EncodingStructure,
    abba_manifold,
    build_mother,
    encode,
    puncture,
)
from qostbc.codes import _walsh_product
from oracles import walsh_dw

ALL_K = [2, 4, 8, 16, 32, 64, 128, 256]
TABLE_CASES = [(k, n_t) for k in ALL_K for n_t in sorted({1, 3, k - 1, k}) if n_t <= k]


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def raw_index(st):
    """1-based raw symbol index of every table entry."""
    return st.table % st.k + 1


def conjugated(st):
    return st.table % (2 * st.k) >= st.k


def entries(st):
    """Table entries rendered like ``-s3*``."""
    neg = st.table >= 2 * st.k
    return [
        [("-" if n else "") + f"s{r}" + ("*" if c else "") for r, n, c in zip(*row)]
        for row in zip(raw_index(st), neg, conjugated(st))
    ]


class TestManifold:
    def test_symbol_scalar_case(self):
        m = abba_manifold([1 + 2j, 3 - 1j])
        np.testing.assert_array_equal(m, [[1 + 2j, 3 - 1j], [-3 + 1j, 1 + 2j]])

    def test_symbol_order_two_expansion(self):
        # one hand expansion of the recursion: the 2x2 sub-blocks of the
        # 4x4 result are the 2x2 manifolds of the two halves
        m = abba_manifold([1, 2, 3, 4])
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
            abba_manifold([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_commutativity(self, k):
        # manifolds of independent vectors commute
        rng = np.random.default_rng(k)
        a = abba_manifold(crandn(rng, k))
        b = abba_manifold(crandn(rng, k))
        lhs = a @ b
        rhs = b @ a
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(0)
        v = crandn(rng, 3, 5, 8)
        batched = abba_manifold(v)
        assert batched.shape == (3, 5, 8, 8)
        np.testing.assert_allclose(batched[1, 2], abba_manifold(v[1, 2]))


class TestMotherMatrix:
    def test_k2_is_the_classic_two_antenna_code(self):
        assert entries(build_mother(2)) == [["s1", "s2"], ["-s2*", "s1*"]]

    def test_k4_bottom_rows(self):
        rows = entries(build_mother(4))
        assert rows[2] == ["-s3*", "s4*", "s1*", "-s2*"]
        assert rows[3] == ["-s4*", "-s3*", "s2*", "s1*"]

    @pytest.mark.parametrize("k", [k for k in ALL_K if k >= 4])
    def test_top_left_block(self, k):
        # unconjugated 2x2 block [[s1, s2], [-s2, s1]] for every k >= 4
        rows = entries(build_mother(k))
        assert [row[:2] for row in rows[:2]] == [["s1", "s2"], ["-s2", "s1"]]

    @pytest.mark.parametrize("k", ALL_K)
    def test_dense_and_complete(self, k):
        # dense: every entry is one signed, possibly conjugated raw symbol;
        # complete: each row and column uses every raw symbol once
        st = build_mother(k)
        assert st.table.shape == (k, k) and st.k == k and st.n_t == k
        assert np.all((st.table >= 0) & (st.table < 4 * k))
        raw, want = raw_index(st), np.arange(1, k + 1)
        for i in range(k):
            np.testing.assert_array_equal(np.sort(raw[i, :]), want)
            np.testing.assert_array_equal(np.sort(raw[:, i]), want)
        # the bottom half, and only it, is conjugated
        assert np.all(conjugated(st) == (np.arange(k)[:, None] >= k // 2))

    def test_rejects_non_power_of_two(self):
        for k in (6, 1):
            with pytest.raises(ValueError):
                build_mother(k)


class TestPuncture:
    def test_full_selection(self):
        mother = build_mother(4)
        np.testing.assert_array_equal(puncture(mother, 4).table, mother.table)

    def test_leftmost_rule(self):
        mother = build_mother(4)
        st = puncture(mother, 3)
        assert (st.k, st.n_t) == (4, 3)
        np.testing.assert_array_equal(st.table, mother.table[:, :3])

    def test_rows_keep_distinct_raw_indices(self):
        st = puncture(build_mother(8), 5)
        for row in raw_index(st):
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
            conjugated(st),
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


def recursion_encode(st, s):
    """The definition ``[[A(s1), B(s2)], [-B(s2)^H, A(s1)^H]]``, evaluated
    numerically from the manifolds, with its leftmost ``n_t``
    columns kept; in the dtype :func:`encode` promises."""
    s = np.asarray(s)
    s = s.astype(np.result_type(s.dtype, np.int8))
    a = abba_manifold(s[..., : st.k // 2])
    b = abba_manifold(s[..., st.k // 2 :])

    def herm(m):
        return np.conj(np.swapaxes(m, -1, -2))

    return np.block([[a, b], [-herm(b), herm(a)]])[..., : st.n_t]


class TestEncodeTable:
    @pytest.mark.parametrize("k,n_t", TABLE_CASES)
    def test_gather_equals_grid_definition(self, k, n_t):
        rng = np.random.default_rng(k + n_t)
        st = puncture(build_mother(k), n_t)
        inputs = [
            crandn(rng, k),
            crandn(rng, 5, 2, k),
            crandn(rng, 3, k).astype(np.complex64),
            rng.integers(-9, 10, size=(3, k)),
            rng.integers(0, 10, size=k).astype(np.uint8),
        ]
        for s in inputs:
            got, want = encode(st, s), recursion_encode(st, s)
            assert got.dtype == want.dtype
            assert got.shape == s.shape[:-1] + (k, n_t)
            np.testing.assert_array_equal(got, want)
            # a fancy-indexed gather puts the batch axes innermost, which
            # slows every matmul on the transmit matrix
            assert got.flags.c_contiguous

    def test_grids_and_table_are_read_only(self):
        # the table is the code's only grid
        for st in (build_mother(4), puncture(build_mother(4), 3)):
            with pytest.raises(ValueError):
                st.table[0] = 1

    def test_replace_rebuilds_table(self):
        st = build_mother(8)
        negated = replace(st, table=(st.table + 16) % 32)
        assert not negated.table.flags.writeable
        s = np.arange(1, 9) * 1j
        np.testing.assert_array_equal(encode(negated, s), -encode(st, s))

    def test_table_ignores_later_caller_writes(self):
        st = build_mother(4)
        table = np.array(st.table)
        # a read-only view of a writeable array is copied as well
        view = table[:]
        view.flags.writeable = False
        for given in (table, view):
            own = EncodingStructure(given)
            table[:] = 0
            np.testing.assert_array_equal(own.table, st.table)
            np.testing.assert_array_equal(encode(own, np.arange(4.0)), encode(st, np.arange(4.0)))
            table[:] = st.table

    def test_full_puncture_shares_the_mothers_table(self):
        mother = build_mother(16)
        full, part = puncture(mother, 16), puncture(mother, 5)
        assert np.shares_memory(full.table, mother.table)
        # a strided leftmost-columns view is copied, so gathers stay contiguous
        assert part.table.flags.c_contiguous
        assert not np.shares_memory(part.table, mother.table)
        for st in (full, part):
            with pytest.raises(ValueError):
                st.table[0, 0] = 1

    @pytest.mark.parametrize(
        "table",
        [np.zeros((3, 2)), np.zeros((4, 5)), np.zeros((4, 0)), np.full((2, 2), 8), -np.ones((2, 1))],
    )
    def test_rejects_malformed_table(self, table):
        with pytest.raises(ValueError):
            EncodingStructure(table)

    def test_last_mother_is_shared(self):
        # verify and the channel minors' tables build each K once; sharing
        # is safe because the table is read-only
        assert build_mother(16) is build_mother(16)
        assert build_mother(8) is not build_mother(16)

    def test_vector_gather_copies_no_table(self):
        # np.take copies a read-only index array before it gathers; one
        # symbol vector is gathered without that copy of the table
        st = build_mother(512)
        s = np.arange(512) * 1j
        encode(st, s)
        tracemalloc.start()
        try:
            c = encode(st, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c.nbytes + st.table.nbytes // 2, (peak, c.nbytes, st.table.nbytes)

    def test_puncture_keeps_within_the_structure(self):
        with pytest.raises(ValueError):
            puncture(puncture(build_mother(8), 3), 5)


def gram(c):
    return c @ c.conj().T


class TestGram:
    def test_k2_unitary(self):
        c = encode(build_mother(2), np.array([1.0, 1.0j]))
        np.testing.assert_allclose(gram(c), 2.0 * np.eye(2), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", [8, 64])
    def test_off_block_vanishes(self, k):
        rng = np.random.default_rng(k)
        g = gram(encode(build_mother(k), crandn(rng, k)))
        h = k // 2
        assert max(np.abs(g[:h, h:]).max(), np.abs(g[h:, :h]).max()) < 1e-12 * np.abs(g).max()

    @pytest.mark.parametrize("k", ALL_K)
    def test_diagonal_blocks_match_minor_energies(self, k):
        rng = np.random.default_rng(k + 1)
        s = crandn(rng, k)
        c = encode(build_mother(k), s)
        h = k // 2
        a, b = c[:h, :h], c[:h, h:]
        np.testing.assert_allclose(gram(c)[:h, :h], a @ a.conj().T + b @ b.conj().T, atol=1e-10)


class TestWalshProduct:
    """``_walsh_product``, one Kronecker factor at a time, against the dense ``D W``."""

    @pytest.mark.parametrize("half", [2**e for e in range(12)])
    def test_equals_dense_basis_exactly(self, half):
        # Gaussian integers: every product and partial sum is exact, so the
        # factored and the dense products agree to the bit
        v = walsh_dw(half)
        rng = np.random.default_rng(7000 + half)
        for lead in ((), (3,), (2, 3)):
            shape = lead + (half,)
            x = rng.integers(-9, 10, shape) + 1j * rng.integers(-9, 10, shape)
            for transpose, want in ((False, x @ v), (True, x @ v.T)):
                got = _walsh_product(x, transpose)
                assert got.shape == shape
                assert np.array_equal(got, want), (half, lead, transpose)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            _walsh_product(np.ones((2, 96)))
