"""Exact dense matrices over cyclic-extension elements.

Inverses, ranks and row echelon forms are all read off one sparse
Gauss-Jordan elimination, severi.fields.row_reduce, with exact field
arithmetic in L (see severi.fields for the integer product kernel).  It is
handed each matrix's `sparse_rows`, [A | I] as A's rows with one identity
pair each, and returns the nonzero reduced rows as dicts: `inverse` reads
the right block from them, and `rref` alone pads them back into a dense
Matrix.  A square matrix is invertible exactly when its rank is its size.
A scaled-permutation recognizer supports the structured Hilbert 90 split,
whose input matrices are monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import InputError, ShapeMismatch, Singular
from .fields import CyclicExtension, ExtElement, galois_apply, row_reduce
from .fields import scalar_to_json as _scalar_to_json


@dataclass(frozen=True)
class Matrix:
    ext: CyclicExtension
    rows: int
    cols: int
    entries: tuple[ExtElement, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries")

    def at(self, i: int, j: int) -> ExtElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[ExtElement, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, ExtElement], ...], ...]:
        """The nonzero entries of each row as (column, entry) pairs, by column."""
        return tuple(tuple((j, a) for j, a in enumerate(self.row(i)) if not a.is_zero())
                     for i in range(self.rows))

    def as_rows(self) -> list[list[ExtElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def map(self, fn: Callable[[ExtElement], ExtElement]) -> "Matrix":
        return Matrix(self.ext, self.rows, self.cols, tuple(fn(e) for e in self.entries))

    def scale(self, c: ExtElement) -> "Matrix":
        return self.map(lambda e: e * c)

    def __repr__(self) -> str:
        rows = [" ".join(repr(self.at(i, j)) for j in range(self.cols))
                for i in range(self.rows)]
        return "[" + "; ".join(rows) + "]"


def from_rows(ext: CyclicExtension, rows: Sequence[Sequence]) -> Matrix:
    r = len(rows)
    c = len(rows[0]) if r else 0
    ent = []
    for row in rows:
        if len(row) != c:
            raise ShapeMismatch("ragged rows")
        for x in row:
            ent.append(x if isinstance(x, ExtElement) else ext.from_base(x))
    return Matrix(ext, r, c, tuple(ent))


def identity(ext: CyclicExtension, n: int) -> Matrix:
    one, zero = ext.one(), ext.zero()
    return Matrix(ext, n, n,
                  tuple(one if i == j else zero for i in range(n) for j in range(n)))


def mul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise ShapeMismatch(f"{A.rows}x{A.cols} times {B.rows}x{B.cols}")
    ext = A.ext
    zero = ext.zero()
    Brows = B.as_rows()
    out = []
    for i in range(A.rows):
        arow = A.row(i)
        acc = [zero] * B.cols
        for t in range(A.cols):
            x = arow[t]
            if x.is_zero():
                continue
            brow = Brows[t]
            for j in range(B.cols):
                if not brow[j].is_zero():
                    acc[j] = acc[j] + x * brow[j]
        out.extend(acc)
    return Matrix(ext, A.rows, B.cols, tuple(out))


def inverse(A: Matrix) -> Matrix:
    """The right block of the reduced form of [A | I], with I given as one
    (n + i, 1) pair on row i."""
    if A.rows != A.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    n, one, zero = A.rows, A.ext.one(), A.ext.zero()
    R, pivots = row_reduce(A.ext, [row + ((n + i, one),)
                                   for i, row in enumerate(A.sparse_rows)])
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return Matrix(A.ext, n, n, tuple(row.get(n + j, zero) for row in R
                                     for j in range(n)))


def galois_matrix(L: CyclicExtension, A: Matrix, j: int) -> Matrix:
    """sigma^j applied to every entry."""
    if A.ext != L:
        raise InputError("matrix is not over the given extension")
    return A.map(lambda e: galois_apply(L, e, j))


@dataclass(frozen=True)
class ScaledPermutation:
    """A monomial matrix: A e_j = scales[perm[j]] * e_{perm[j]}.

    perm[j] is the row of the unique nonzero entry in column j; scales[i] is
    the unique nonzero entry in row i.
    """

    perm: tuple[int, ...]
    scales: tuple[ExtElement, ...]


def as_scaled_permutation(A: Matrix) -> Optional[ScaledPermutation]:
    """Recognize a monomial matrix; None means not_monomial."""
    if A.rows != A.cols:
        raise ShapeMismatch("scaled-permutation recognition needs a square matrix")
    n = A.rows
    perm = [-1] * n
    scales: list[Optional[ExtElement]] = [None] * n
    for j in range(n):
        hits = [i for i in range(n) if not A.at(i, j).is_zero()]
        if len(hits) != 1:
            return None
        i = hits[0]
        if scales[i] is not None:
            return None  # two nonzeros in row i
        perm[j] = i
        scales[i] = A.at(i, j)
    return ScaledPermutation(tuple(perm), tuple(scales))  # type: ignore[arg-type]


def rref(A: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact field division."""
    R, pivots = row_reduce(A.ext, A.sparse_rows)
    zero = A.ext.zero()
    dense = [row.get(j, zero) for row in R for j in range(A.cols)]
    dense += [zero] * ((A.rows - len(R)) * A.cols)
    return Matrix(A.ext, A.rows, A.cols, tuple(dense)), pivots


def rank(A: Matrix) -> int:
    return len(rref(A)[1])


# ---------------------------------------------------------------------------
# JSON form: {rows, cols, entries: [[coeff-vectors]]}
# ---------------------------------------------------------------------------


def matrix_to_json(A: Matrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[_scalar_to_json(c) for c in e.coeffs] for e in A.entries],
    }
