"""Construction of rate-one quasi-orthogonal space-time block encoding matrices.

The codes built here map a block of ``K`` complex symbols (``K`` a power of
two) onto ``K`` transmit epochs over ``n_t <= K`` antennas.  Every matrix
entry is ``+-s_k`` or ``+-conj(s_k)`` for exactly one *raw* symbol ``s_k``,
so a code is fully described by one ``(K, n_t)`` integer table
(:class:`EncodingStructure`) into ``[s, conj(s), -s, -conj(s)]``.  That
table is the code's only representation: :func:`encode` is a single gather
through it, and :mod:`qostbc.channels` reads the channel minors off it.
Every manifold is diagonal in one fixed basis, :func:`walsh_basis`, a
Kronecker power that :func:`_walsh_product` applies one factor at a time.

The K-by-K *mother* matrix is obtained by wrapping two recursive block
matrices (see :func:`abba_manifold`) built from the two halves of the symbol
vector; the recursion runs once, over the signed raw indices, and is folded
straight into the table.  Transmit matrices for fewer antennas keep the
leftmost columns of the mother matrix (:func:`puncture`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EncodingStructure",
    "abba_manifold",
    "walsh_basis",
    "build_mother",
    "puncture",
    "encode",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def abba_manifold(vec) -> np.ndarray:
    """Recursive block matrix of a length-``2**n`` vector.

    The vector is folded pairwise: neighbouring entries ``a`` and ``b`` are
    combined into ``[[a, b], [-b, a]]``, then neighbouring blocks are
    combined again with the same template, until a single square matrix
    remains.  This is equivalent to the top-down recursion
    ``T(first half) , T(second half)`` wrapped once more with the template.

    Parameters
    ----------
    vec : array_like
        Input of shape ``(..., K)`` with ``K`` a power of two.  Any numeric
        dtype works; signed integers give the symbolic (index, sign) form.

    Returns
    -------
    np.ndarray
        Array of shape ``(..., K, K)``.
    """
    vec = np.asarray(vec)
    k = vec.shape[-1]
    if not _is_power_of_two(k):
        raise ValueError(f"vector length {k} is not a power of two")
    blocks = vec[..., :, None, None]
    while blocks.shape[-3] > 1:
        a = blocks[..., 0::2, :, :]
        b = blocks[..., 1::2, :, :]
        top = np.concatenate([a, b], axis=-1)
        bot = np.concatenate([-b, a], axis=-1)
        blocks = np.concatenate([top, bot], axis=-2)
    return blocks[..., 0, :, :]


@lru_cache(maxsize=16)
def walsh_basis(half: int) -> np.ndarray:
    """The read-only ``half x half`` matrix ``V = D W`` that diagonalises every manifold.

    ``W[i, j] = (-1)^popcount(i & j)`` is the Sylvester-Hadamard matrix of
    order ``half`` and ``D = diag(i^popcount(j))``.  For every ``v`` of
    length ``half``,

        abba_manifold(v) = V diag(V^T v) V^H / half,

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


@dataclass(frozen=True, eq=False)
class EncodingStructure:
    """The transmit matrix of a code as one signed-gather table.

    Attributes
    ----------
    table : np.ndarray
        ``(K, n_t)`` integer index of each transmitted entry into
        ``[s, conj(s), -s, -conj(s)]``: entry ``sign * s_r``, conjugated or
        not, is ``r - 1 + K*conjugated + 2K*(sign < 0)`` with ``r`` 1-based.
        Rows are epochs, columns antennas.  Read-only: a C-contiguous
        ``intp`` array that no array can write to (it and every array it
        views are read-only, and the last owns its data) is kept as it is,
        so ``puncture(mother, K)`` shares its mother's table; anything else
        is copied, a strided leftmost-columns view too, since gathers
        through it run slower.
    """

    table: np.ndarray

    def __post_init__(self):
        table = self.table
        if not (
            isinstance(table, np.ndarray)
            and table.dtype == np.intp
            and table.flags.c_contiguous
            and _frozen(table)
        ):
            table = np.array(table, dtype=np.intp)
            table.flags.writeable = False
        if table.ndim != 2 or not _is_power_of_two(table.shape[0]):
            raise ValueError(f"table of shape {table.shape} is not (K, n_t) with K a power of two")
        if not 1 <= table.shape[1] <= table.shape[0]:
            raise ValueError(f"n_t={table.shape[1]} out of range 1..{table.shape[0]}")
        if table.min() < 0 or table.max() >= 4 * table.shape[0]:
            raise ValueError("table entries must lie in 0..4K-1")
        object.__setattr__(self, "table", table)

    @property
    def k(self) -> int:
        return self.table.shape[0]

    @property
    def n_t(self) -> int:
        return self.table.shape[1]


def _frozen(a) -> bool:
    """No array can write to ``a``: it and every array it views are read-only,
    down to one that owns its data."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        if a.base is None:
            return True
        a = a.base
    return False


@lru_cache(maxsize=1)
def build_mother(k: int) -> EncodingStructure:
    """Build the K-by-K mother encoding matrix.

    The top half is ``[A, B]`` with ``A``/``B`` the manifolds of the
    first/second halves of the symbol vector; the bottom half is
    ``[-B^H, A^H]``.  The result is dense (no zero entries) and complete
    (each row and each column uses every raw symbol exactly once).  The
    last structure built is kept and shared, which is safe because its
    table is read-only: ``verify`` and the channel minors' tables of one
    ``K`` build it once.

    Parameters
    ----------
    k : int
        Block size, a power of two >= 2.

    Returns
    -------
    EncodingStructure
    """
    if not _is_power_of_two(k) or k < 2:
        raise ValueError(f"K={k} must be a power of two >= 2")
    # the manifolds of the signed 1-based raw indices carry each entry's
    # index and sign; the bottom half is conjugated and transposed
    half = np.arange(1, k // 2 + 1)
    a = abba_manifold(half)
    b = abba_manifold(half + k // 2)
    signed = np.block([[a, b], [-b.T, a.T]])
    conj = np.repeat([0, k], k // 2)[:, None]
    table = np.abs(signed) - 1 + conj + 2 * k * (signed < 0)
    table.flags.writeable = False  # so the structure keeps it and copies nothing
    return EncodingStructure(table)


def puncture(structure: EncodingStructure, n_t: int) -> EncodingStructure:
    """Select the leftmost ``n_t`` columns for transmission.

    The leftmost rule keeps the selection deterministic and preserves the
    half/half column split behind the block-orthogonality of the code.
    """
    if not (1 <= n_t <= structure.n_t):
        raise ValueError(f"n_t={n_t} out of range 1..{structure.n_t}")
    return EncodingStructure(structure.table[:, :n_t])


def _signed_gather(parts, table) -> np.ndarray:
    """``table`` gathered from ``parts`` joined along the last axis.

    ``np.take`` along the last axis returns a C-contiguous ``(..., *table.shape)``
    array; fancy indexing ``joined[..., table]`` would put the leading axes
    innermost, which slows every matmul on the result.  But ``np.take``
    copies a read-only index array first, as large as a ``K x K`` code's
    table, so a single vector is gathered by fancy indexing.
    """
    joined = np.concatenate(parts, axis=-1)
    if joined.ndim == 1:
        return joined[table]
    return np.take(joined, table, axis=-1)


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
    return _signed_gather((s, sc, -s, -sc), structure.table)
