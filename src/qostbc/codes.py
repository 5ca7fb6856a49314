"""Construction of rate-one quasi-orthogonal space-time block encoding matrices.

The codes built here map a block of ``K`` complex symbols (``K`` a power of
two) onto ``K`` transmit epochs over ``n_t <= K`` antennas.  Every matrix
entry is ``+-s_k`` or ``+-conj(s_k)`` for exactly one *raw* symbol ``s_k``,
so the full structure can be represented symbolically by three integer/bool
grids (raw index, sign, conjugation flag) and instantiated with any complex
symbol vector afterwards.

The K-by-K *mother* matrix is obtained by wrapping two recursive block
matrices (see :func:`abba_manifold`) built from the two halves of the symbol
vector.  Transmit matrices for fewer antennas are column selections of the
mother matrix (:func:`puncture`).

The layout is evaluated once per structure: :class:`EncodingStructure`
folds the grids of the recursion and its selected columns into one
``(K, n_t)`` integer table into ``[s, conj(s), -s, -conj(s)]``, and
:func:`encode` is a single gather through that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "CodeEntry",
    "EncodingStructure",
    "abba_manifold",
    "build_mother",
    "puncture",
    "encode",
    "gram_check",
    "structure_to_text",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# The three 2x2 block templates used throughout.  Each one assembles a
# matrix of twice the size from two equally sized blocks ``a`` and ``b``:
#
#   "symbol":     [[ a,  b], [-b,  a]]     symbol-side recursion
#   "channel":    [[ a,  b], [ b, -a]]     first channel minor recursion
#   "combining":  [[ a, -b], [ b,  a]]     second minor / reduced matrices
def _assemble(a: np.ndarray, b: np.ndarray, generator: str) -> np.ndarray:
    if generator == "symbol":
        top = np.concatenate([a, b], axis=-1)
        bot = np.concatenate([-b, a], axis=-1)
    elif generator == "channel":
        top = np.concatenate([a, b], axis=-1)
        bot = np.concatenate([b, -a], axis=-1)
    elif generator == "combining":
        top = np.concatenate([a, -b], axis=-1)
        bot = np.concatenate([b, a], axis=-1)
    else:
        raise ValueError(f"unknown generator {generator!r}")
    return np.concatenate([top, bot], axis=-2)


def abba_manifold(vec, generator: str) -> np.ndarray:
    """Recursive block matrix of a length-``2**n`` vector.

    The vector is folded pairwise: neighbouring entries are combined with
    the 2x2 template named by ``generator`` ("symbol", "channel" or
    "combining"), then neighbouring blocks are combined again with the same
    template, until a single square matrix remains.  This is equivalent to
    the top-down recursion ``T(first half) , T(second half)`` wrapped once
    more with the template.

    Parameters
    ----------
    vec : array_like
        Input of shape ``(..., K)`` with ``K`` a power of two.  Any numeric
        dtype works; signed integers give the symbolic (index, sign) form.
    generator : str
        One of ``"symbol"``, ``"channel"``, ``"combining"``.

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
        blocks = _assemble(a, b, generator)
    return blocks[..., 0, :, :]


@dataclass(frozen=True)
class CodeEntry:
    """A single symbolic entry ``sign * s_raw_index`` (conjugated if flagged)."""

    raw_index: int
    sign: int
    conjugated: bool

    def __post_init__(self):
        if self.raw_index < 1:
            raise ValueError("raw_index is 1-based and must be >= 1")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def __str__(self) -> str:
        return "{}s{}{}".format(
            "-" if self.sign < 0 else " ",
            self.raw_index,
            "*" if self.conjugated else "",
        )


@dataclass(frozen=True)
class EncodingStructure:
    """Symbolic K-by-K mother encoding matrix plus the retained columns.

    Attributes
    ----------
    k : int
        Block size (power of two).  Rows are transmit epochs.
    raw_index, sign, conjugated : np.ndarray
        ``(k, k)`` grids; ``raw_index`` is 1-based.
    selected_columns : np.ndarray
        Strictly increasing 1-based column indices; the transmit matrix
        uses these ``n_t`` columns of the mother matrix.
    table : np.ndarray
        ``(k, n_t)`` index of each transmitted entry into
        ``[s, conj(s), -s, -conj(s)]``: ``raw_index - 1 + k*conjugated +
        2k*(sign < 0)`` over the selected columns.  Derived, never passed.

    All four arrays are read-only copies, so the table cannot go stale;
    :func:`puncture` and :func:`dataclasses.replace` rebuild it.
    """

    k: int
    raw_index: np.ndarray
    sign: np.ndarray
    conjugated: np.ndarray
    selected_columns: np.ndarray = field(default=None)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_power_of_two(self.k):
            raise ValueError(f"K={self.k} is not a power of two")
        if self.selected_columns is None:
            object.__setattr__(self, "selected_columns", np.arange(1, self.k + 1))
        for name in ("raw_index", "sign", "conjugated", "selected_columns"):
            grid = np.array(getattr(self, name))
            grid.flags.writeable = False
            object.__setattr__(self, name, grid)
        cols = self.selected_columns
        if cols.ndim != 1 or not (1 <= len(cols) <= self.k):
            raise ValueError("selected_columns must be a non-empty 1-D index list")
        if np.any((cols < 1) | (cols > self.k)) or np.any(np.diff(cols) <= 0):
            raise ValueError("selected_columns must be strictly increasing in 1..K")
        if np.any((self.raw_index < 1) | (self.raw_index > self.k)):
            raise ValueError("raw indices must lie in 1..K")
        full = (self.raw_index - 1) + self.k * self.conjugated + 2 * self.k * (self.sign < 0)
        table = full[:, cols - 1].astype(np.intp)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def n_t(self) -> int:
        return len(self.selected_columns)

    def entry(self, row: int, col: int) -> CodeEntry:
        """Entry at 0-based (row, col) of the mother matrix."""
        return CodeEntry(
            int(self.raw_index[row, col]),
            int(self.sign[row, col]),
            bool(self.conjugated[row, col]),
        )


def build_mother(k: int) -> EncodingStructure:
    """Build the symbolic K-by-K mother encoding matrix.

    The top half is ``[A, B]`` with ``A``/``B`` the "symbol" manifolds of
    the first/second halves of the symbol vector; the bottom half is
    ``[-B^H, A^H]``.  The result is dense (no zero entries) and complete
    (each row and each column uses every raw symbol exactly once).

    Parameters
    ----------
    k : int
        Block size, a power of two.

    Returns
    -------
    EncodingStructure
    """
    if not _is_power_of_two(k):
        raise ValueError(f"K={k} is not a power of two")
    if k == 1:
        idx = np.array([[1]], dtype=np.int32)
        return EncodingStructure(1, idx, np.ones((1, 1), np.int8), np.zeros((1, 1), bool))
    half = np.arange(1, k // 2 + 1, dtype=np.int32)
    a = abba_manifold(half, "symbol")
    b = abba_manifold(half + k // 2, "symbol")
    top = np.concatenate([a, b], axis=1)
    # bottom blocks are Hermitian transposes: transpose the symbolic grid,
    # flip signs for the left block, conjugate everything
    bot = np.concatenate([-b.T, a.T], axis=1)
    signed = np.concatenate([top, bot], axis=0)
    conj = np.zeros((k, k), dtype=bool)
    conj[k // 2 :, :] = True
    return EncodingStructure(k, np.abs(signed).astype(np.int32), np.sign(signed).astype(np.int8), conj)


def puncture(structure: EncodingStructure, n_t: int) -> EncodingStructure:
    """Select the leftmost ``n_t`` columns for transmission.

    The leftmost rule keeps the selection deterministic and preserves the
    half/half column split behind the block-orthogonality of the code.
    """
    if not (1 <= n_t <= structure.k):
        raise ValueError(f"n_t={n_t} out of range 1..{structure.k}")
    return replace(structure, selected_columns=np.arange(1, n_t + 1))


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
    -conj(s)]``.  The output dtype is that of ``s`` times the int8 ``sign``
    grid, so unsigned input is promoted before it is negated.

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
    s = s.astype(np.result_type(s.dtype, structure.sign.dtype), copy=False)
    sc = np.conj(s)
    return _signed_gather((s, sc, -s, -sc), structure.table)


def gram_check(c: np.ndarray):
    """Gram matrix diagnostics of an instantiated K-by-K mother matrix.

    Computes ``G = C C^H`` and returns the top-left ``K/2`` block together
    with the largest absolute entry of the off-diagonal ``K/2`` block.  For
    a valid code the off-diagonal blocks vanish and both diagonal blocks
    equal ``A A^H + B B^H``.
    """
    c = np.asarray(c)
    k = c.shape[0]
    g = c @ c.conj().T
    h = k // 2
    residual = float(np.abs(g[:h, h:]).max()) if h else 0.0
    return g[:h, :h], residual


def structure_to_text(structure: EncodingStructure) -> str:
    """Human-readable dump, one line per epoch, entries like ``-s3*``."""
    lines = []
    for i in range(structure.k):
        cells = [str(structure.entry(i, int(j) - 1)) for j in structure.selected_columns]
        lines.append(" ".join(f"{c:>6s}" for c in cells))
    return "\n".join(lines)
