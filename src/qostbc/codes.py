"""Construction of rate-one quasi-orthogonal space-time block encoding matrices.

The codes built here map a block of ``K`` complex symbols (``K`` a power of
two) onto ``K`` transmit epochs over ``n_t <= K`` antennas.  Every matrix
entry is ``+-s_k`` or ``+-conj(s_k)`` for exactly one *raw* symbol ``s_k``,
so a code is fully described by one ``(K, n_t)`` integer table
(:class:`EncodingStructure`) into ``[s, conj(s), -s, -conj(s)]``.  That
table is the code's only representation: :func:`encode` is a single gather
through it, and :mod:`qostbc.channels` reads the channel minors off it.
Every manifold is diagonal in one fixed basis, :func:`walsh_basis`.

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


@dataclass(frozen=True, eq=False)
class EncodingStructure:
    """The transmit matrix of a code as one signed-gather table.

    Two structures are equal when their tables are; the hash is over the
    table's shape and bytes.

    Attributes
    ----------
    table : np.ndarray
        ``(K, n_t)`` integer index of each transmitted entry into
        ``[s, conj(s), -s, -conj(s)]``: entry ``sign * s_r``, conjugated or
        not, is ``r - 1 + K*conjugated + 2K*(sign < 0)`` with ``r`` 1-based.
        Rows are epochs, columns antennas.  Kept as a read-only copy.
    """

    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=np.intp)
        if table.ndim != 2 or not _is_power_of_two(table.shape[0]):
            raise ValueError(f"table of shape {table.shape} is not (K, n_t) with K a power of two")
        if not 1 <= table.shape[1] <= table.shape[0]:
            raise ValueError(f"n_t={table.shape[1]} out of range 1..{table.shape[0]}")
        if np.any((table < 0) | (table >= 4 * table.shape[0])):
            raise ValueError("table entries must lie in 0..4K-1")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        if not isinstance(other, EncodingStructure):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.table.shape, self.table.tobytes()))

    @property
    def k(self) -> int:
        return self.table.shape[0]

    @property
    def n_t(self) -> int:
        return self.table.shape[1]


def build_mother(k: int) -> EncodingStructure:
    """Build the K-by-K mother encoding matrix.

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
    if not _is_power_of_two(k) or k < 2:
        raise ValueError(f"K={k} must be a power of two >= 2")
    # the manifolds of the signed 1-based raw indices carry each entry's
    # index and sign; the bottom half is conjugated and transposed
    half = np.arange(1, k // 2 + 1)
    a = abba_manifold(half)
    b = abba_manifold(half + k // 2)
    signed = np.block([[a, b], [-b.T, a.T]])
    conj = np.repeat([0, k], k // 2)[:, None]
    return EncodingStructure(np.abs(signed) - 1 + conj + 2 * k * (signed < 0))


def puncture(structure: EncodingStructure, n_t: int) -> EncodingStructure:
    """Select the leftmost ``n_t`` columns for transmission.

    The leftmost rule keeps the selection deterministic and preserves the
    half/half column split behind the block-orthogonality of the code.
    """
    if not (1 <= n_t <= structure.n_t):
        raise ValueError(f"n_t={n_t} out of range 1..{structure.n_t}")
    return EncodingStructure(structure.table[:, :n_t])


def _signed_gather(parts, table) -> np.ndarray:
    """``np.take`` of ``table`` from ``parts`` joined along the last axis.

    ``np.take`` along the last axis returns a C-contiguous ``(..., *table.shape)``
    array; fancy indexing ``joined[..., table]`` would put the leading axes
    innermost, which slows every matmul on the result.
    """
    return np.take(np.concatenate(parts, axis=-1), table, axis=-1)


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
