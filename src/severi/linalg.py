"""Exact sparse matrices over cyclic-extension elements.

A Matrix holds only its rows: its nonzero entries, row by row, as
(column, entry) pairs in increasing column order; its constructor puts any
pairs into that form, so equal matrices compare equal.  Products,
conjugates and scalings touch nonzero entries only, and dense rows exist
only at the edges: as input to `from_rows`, and as output of `as_rows` and
`matrix_to_json`.  Besides its rows a Matrix carries two caches that are
not fields, both filled by `polyring.substitute_linear`: `product_memo`,
the products it has formed with the matrix's entries, and
`exponent_vectors`, the exponent vectors of the monomials it has built.

Inverses, ranks and row echelon forms are all read off one sparse
Gauss-Jordan elimination, severi.fields.row_reduce, with exact field
arithmetic in L, whose elements keep integer coordinates over one
denominator (see severi.fields for their normal form and kernels).  It is
handed each matrix's `sparse_rows`, [A | I] as A's rows with one identity
pair each, and returns the nonzero reduced rows as dicts: `inverse` keeps
their right block, and `rref` keeps them whole.  `inverse` raises
`Singular` unless A is invertible, so the elimination that inverts a
matrix proves it invertible, with no rank test before it.  `rank` has one
program caller, the guard of `veronese.induced_matrix`: splits of a
cocycle are proven invertible over k instead (`cohomology.k_rank`).
Monomial matrices are recognized for the structured Hilbert 90 split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import InputError, ShapeMismatch, Singular
from .fields import (CyclicExtension, ExtElement, element_to_json, galois_apply,
                     row_reduce)

SparseRow = tuple[tuple[int, ExtElement], ...]


@dataclass(frozen=True)
class Matrix:
    """Row i of `sparse_rows` holds the (column, entry) pairs of the nonzero
    entries of row i, by increasing column.  The constructor takes each
    row as pairs in any order, with or without zero entries."""

    ext: CyclicExtension
    cols: int
    sparse_rows: tuple[SparseRow, ...]

    def __post_init__(self):
        rows = []
        for pairs in self.sparse_rows:
            row = tuple(sorted(((j, x) for j, x in pairs if x), key=itemgetter(0)))
            if (len({j for j, _ in row}) < len(row)
                    or any(not 0 <= j < self.cols for j, _ in row)):
                raise ShapeMismatch(f"row pairs do not fit {self.cols} distinct columns")
            rows.append(row)
        object.__setattr__(self, "sparse_rows", tuple(rows))

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @cached_property
    def product_memo(self) -> dict[tuple[tuple, int, tuple, int], ExtElement]:
        """(x.nums, x.den, entry.nums, entry.den) -> x * entry for products
        already formed with an entry of this matrix; the integer coordinates
        are in normal form, so equal factors give equal keys and no Fraction
        is hashed.  Not a field: equality, hashing and the rows are
        unaffected.  Sound because the matrix is immutable and a product
        depends only on the coordinates of its factors, once both are known
        to lie in `ext`; its one user checks that."""
        return {}

    @cached_property
    def exponent_vectors(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Sorted index key -> exponent vector of length `rows`, for the
        monomials `polyring.substitute_linear` has built through this
        matrix, so its results share one tuple per monomial.  Not a field,
        like `product_memo`."""
        return {}

    def as_rows(self) -> list[list[ExtElement]]:
        zero = self.ext.zero()
        out = []
        for pairs in self.sparse_rows:
            row = [zero] * self.cols
            for j, x in pairs:
                row[j] = x
            out.append(row)
        return out

    def map(self, fn: Callable[[ExtElement], ExtElement]) -> "Matrix":
        """fn applied to the nonzero entries; fn must send zero to zero."""
        return Matrix(self.ext, self.cols,
                      tuple([(j, fn(x)) for j, x in row] for row in self.sparse_rows))

    def scale(self, c: ExtElement) -> "Matrix":
        return self.map(lambda e: e * c)


def from_rows(ext: CyclicExtension, rows: Sequence[Sequence]) -> Matrix:
    """The matrix of dense rows, whose entries may also be base scalars."""
    c = len(rows[0]) if rows else 0
    if any(len(row) != c for row in rows):
        raise ShapeMismatch("ragged rows")
    return Matrix(ext, c, tuple(
        [(j, x if isinstance(x, ExtElement) else ext.from_base(x))
         for j, x in enumerate(row) if x] for row in rows))


def identity(ext: CyclicExtension, n: int) -> Matrix:
    one = ext.one()
    return Matrix(ext, n, tuple(((i, one),) for i in range(n)))


def mul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise ShapeMismatch(f"{A.rows}x{A.cols} times {B.rows}x{B.cols}")
    out = []
    for arow in A.sparse_rows:
        acc: dict[int, ExtElement] = {}
        for t, x in arow:
            for j, b in B.sparse_rows[t]:
                cur = acc.get(j)
                acc[j] = x * b if cur is None else cur + x * b
        out.append(acc.items())
    return Matrix(A.ext, B.cols, tuple(out))


def inverse(A: Matrix) -> Matrix:
    """The right block of the reduced form of [A | I], with I given as one
    (n + i, 1) pair on row i."""
    if A.rows != A.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    n, one = A.rows, A.ext.one()
    R, pivots = row_reduce(A.ext, [row + ((n + i, one),)
                                   for i, row in enumerate(A.sparse_rows)])
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return Matrix(A.ext, n, tuple([(j - n, x) for j, x in row.items() if j >= n]
                                  for row in R))


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
    """Recognize a monomial matrix, one nonzero entry in each row and in
    each column; None means not_monomial."""
    if A.rows != A.cols:
        raise ShapeMismatch("scaled-permutation recognition needs a square matrix")
    perm: dict[int, int] = {}
    for i, row in enumerate(A.sparse_rows):
        if len(row) != 1 or row[0][0] in perm:
            return None
        perm[row[0][0]] = i
    return ScaledPermutation(tuple(perm[j] for j in range(A.cols)),
                             tuple(row[0][1] for row in A.sparse_rows))


def rref(A: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact field division."""
    R, pivots = row_reduce(A.ext, A.sparse_rows)
    return Matrix(A.ext, A.cols,
                  tuple(row.items() for row in R) + ((),) * (A.rows - len(R))), pivots


def rank(A: Matrix) -> int:
    return len(rref(A)[1])


# ---------------------------------------------------------------------------
# JSON form: {rows, cols, entries: [[coeff-vectors]]}
# ---------------------------------------------------------------------------


def matrix_to_json(A: Matrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [element_to_json(e) for row in A.as_rows() for e in row],
    }
