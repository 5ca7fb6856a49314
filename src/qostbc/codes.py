"""Construction of rate-one quasi-orthogonal space-time block encoding matrices.

The codes built here map a block of ``K`` complex symbols (``K`` a power of
two) onto ``K`` transmit epochs over ``n_t <= K`` antennas.  Every matrix
entry is ``+-s_k`` or ``+-conj(s_k)`` for exactly one *raw* symbol ``s_k``,
so a code is fully described by one ``(K, n_t)`` integer table into ``[s,
conj(s), -s, -conj(s)]``, which :class:`EncodingStructure` derives from
``(K, n_t)``.  :func:`encode` is a single gather through it.

The paper builds the K-by-K *mother* matrix by wrapping two recursive ABBA
block matrices of the two halves of the symbol vector.  That recursion has
a closed form: each manifold is a Hadamard-signed dyadic convolution,
``T(v)[i, j] = (-1)^popcount(i & ~j) v[i xor j]``, so :func:`_code_indices`
computes every entry's raw symbol and sign directly from its row and
column.  The same form is why every manifold is diagonal in one fixed
basis, :func:`walsh_basis`, a Kronecker power that :func:`_walsh_product`
applies one factor at a time (Fino & Algazi, IEEE Trans. Comput. 1976).
Transmit matrices for fewer antennas keep the leftmost columns of the
mother matrix (:func:`puncture`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "EncodingStructure",
    "walsh_basis",
    "build_mother",
    "puncture",
    "encode",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@lru_cache(maxsize=16)
def walsh_basis(half: int) -> np.ndarray:
    """The read-only ``half x half`` matrix ``V = D W`` that diagonalises every manifold.

    ``W[i, j] = (-1)^popcount(i & j)`` is the Sylvester-Hadamard matrix of
    order ``half`` and ``D = diag(i^popcount(j))``.  For every ``v`` of
    length ``half``, its manifold ``T(v)[i, j] = (-1)^popcount(i & ~j)
    v[i xor j]`` is

        T(v) = V diag(V^T v) V^H / half,

    because each manifold is a sum of tensor products of ``I`` and ``J =
    [[0, 1], [-1, 0]]``, and the columns of ``V`` are the tensor powers of
    the eigenvectors ``(1, +-i)`` of ``J``.  Every entry is ``+-1`` or
    ``+-i`` and ``V^H V = half I``, so ``V`` carries no rounding.  Built by
    doubling on first use and kept.

    Raises
    ------
    ValueError
        ``half`` is not a power of two.
    """
    if not _is_power_of_two(half):
        raise ValueError(f"K/2={half} is not a power of two")
    v = np.ones((1, 1), dtype=complex)
    while len(v) < half:
        v = np.block([[v, v], [1j * v, -1j * v]])
    v.flags.writeable = False
    return v


# Largest K/2 whose Walsh products are one dense GEMM with walsh_basis(K/2).
# Beyond it two Kronecker factors were faster than the dense GEMM at every
# K/2 from 128 to 2048 and every row count measured, 2 to 8192.
_DENSE_HALF_MAX = 64


def _walsh_product(x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``x @ V``, or ``x @ V^T`` with ``transpose``, along the last axis of an array.

    ``V = walsh_basis(half)`` for the last axis's length ``half``.  ``V`` is
    the Kronecker power of ``[[1, 1], [i, -i]]``, so ``V = V_a (x) V_b`` for
    any split ``half = a b`` into powers of two (Fino & Algazi, IEEE Trans.
    Comput. 1976).  With each row of ``x`` read as an ``a x b`` matrix
    ``X``, ``x @ V`` is ``V_a^T X V_b`` and ``x @ V^T`` is ``V_a X V_b^T``:
    one GEMM with ``V_b`` over all rows, then one ``a x a`` product per
    row, ``half (a + b)`` multiplications per row in place of ``half^2``.
    The split is fixed: up to ``half = 64`` one dense GEMM, beyond it ``a =
    2^floor(log2(half) / 2)`` and ``b = half / a``, so no basis larger than
    64 is built up to ``half = 2048``.  At ``half = 1``, ``V = [[1]]`` and
    ``x`` itself is returned.  Every entry of ``V_a`` and ``V_b`` is ``+-1``
    or ``+-i``, so on Gaussian integers each partial sum is a sub-sum of the
    dense product's and the result is exact whenever that one is.
    """
    half = x.shape[-1]
    if not _is_power_of_two(half):
        raise ValueError(f"K/2={half} is not a power of two")
    if half == 1:
        return x
    rows = x.reshape(-1, half)
    if half <= _DENSE_HALF_MAX:
        v = walsh_basis(half)
        return (rows @ (v.T if transpose else v)).reshape(x.shape)
    a = 1 << ((half.bit_length() - 1) // 2)
    b = half // a
    va, vb = walsh_basis(a), walsh_basis(b)
    if transpose:
        va, vb = va.T, vb.T
    z = (rows.reshape(-1, b) @ vb).reshape(-1, a, b)
    return (va.T @ z).reshape(x.shape)


def _code_indices(k: int, n_t: int) -> np.ndarray:
    """The ``(K, n_t)`` index of every code entry into ``[s, conj(s), -s, -conj(s)]``.

    Entry ``(t, a)`` carries the raw symbol ``t xor a`` (0-based),
    conjugated iff ``t >= K/2``, and negated iff this count is odd:
    ``popcount(t & ~a)`` in the top half, ``popcount(a & ~t) + [a < K/2]``
    in the bottom half.  That is the closed form of the paper's recursion:
    each manifold is a Hadamard-signed dyadic convolution, ``T(v)[i, j] =
    (-1)^popcount(i & ~j) v[i xor j]``, and the bottom half ``[-B^T, A^T]``
    swaps ``i`` and ``j`` and negates its left ``K/2`` columns.  The bit
    arithmetic runs in the smallest unsigned dtype that holds ``K - 1``.
    """
    half = k // 2
    t = np.arange(k, dtype=np.min_scalar_type(k - 1))[:, None]
    a = np.arange(n_t, dtype=t.dtype)
    flips = np.empty((k, n_t), dtype=np.uint8)
    np.bitwise_count(t[:half] & ~a, out=flips[:half])
    np.bitwise_count(a & ~t[half:], out=flips[half:])
    flips[half:, :half] += 1
    flips &= 1
    table = flips.astype(np.intp)
    table *= 2 * k
    table += t ^ a
    table[half:] += k
    return table


@dataclass(frozen=True)
class EncodingStructure:
    """The transmit matrix of a code with ``n_t`` of its ``K`` antennas.

    Attributes
    ----------
    k : int
        Block size, a power of two >= 2.
    n_t : int
        Transmit antennas, ``1 <= n_t <= K``: the leftmost ``n_t`` columns
        of the ``K x K`` mother matrix.
    table : np.ndarray
        Derived once per structure by :func:`_code_indices`: the read-only
        ``(K, n_t)`` index of each transmitted entry into ``[s, conj(s),
        -s, -conj(s)]``.  Entry ``sign * s_r``, conjugated or not, is ``r -
        1 + K*conjugated + 2K*(sign < 0)`` with ``r`` 1-based.  Rows are
        epochs, columns antennas.
    """

    k: int
    n_t: int
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_power_of_two(self.k) or self.k < 2:
            raise ValueError(f"K={self.k} must be a power of two >= 2")
        if not 1 <= self.n_t <= self.k:
            raise ValueError(f"n_t={self.n_t} out of range 1..{self.k}")
        table = _code_indices(self.k, self.n_t)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


def build_mother(k: int) -> EncodingStructure:
    """The K-by-K mother encoding matrix, ``EncodingStructure(k, k)``.

    The top half is ``[A, B]`` with ``A``/``B`` the manifolds of the
    first/second halves of the symbol vector; the bottom half is
    ``[-B^H, A^H]``.  The result is dense (no zero entries) and complete
    (each row and each column uses every raw symbol exactly once).

    Parameters
    ----------
    k : int
        Block size, a power of two >= 2.

    Returns
    -------
    EncodingStructure
    """
    return EncodingStructure(k, k)


def puncture(structure: EncodingStructure, n_t: int) -> EncodingStructure:
    """Select the leftmost ``n_t`` columns for transmission.

    The leftmost rule keeps the selection deterministic and preserves the
    half/half column split behind the block-orthogonality of the code.
    """
    if not (1 <= n_t <= structure.n_t):
        raise ValueError(f"n_t={n_t} out of range 1..{structure.n_t}")
    return EncodingStructure(structure.k, n_t)


def encode(structure: EncodingStructure, s) -> np.ndarray:
    """Instantiate the transmit matrix for a symbol vector.

    One gather through ``structure.table`` from ``[s, conj(s), -s,
    -conj(s)]``.  The output dtype is that of ``s`` promoted with int8, so
    unsigned input is promoted before it is negated.

    Parameters
    ----------
    structure : EncodingStructure
    s : array_like
        Complex symbols of shape ``(..., K)``.

    Returns
    -------
    np.ndarray
        Transmit matrix of shape ``(..., K, n_t)``; rows are epochs,
        columns the selected antennas.
    """
    s = np.asarray(s)
    if s.shape[-1] != structure.k:
        raise ValueError(f"symbol vector length {s.shape[-1]} != K={structure.k}")
    s = s.astype(np.result_type(s.dtype, np.int8), copy=False)
    sc = np.conj(s)
    joined = np.concatenate((s, sc, -s, -sc), axis=-1)
    # np.take along the last axis returns a C-contiguous (..., K, n_t) array,
    # where fancy indexing would put the leading axes innermost and slow
    # every matmul on the result; but np.take first copies a read-only index
    # array, as large as the table, so one vector is gathered by indexing
    if joined.ndim == 1:
        return joined[structure.table]
    return np.take(joined, structure.table, axis=-1)
