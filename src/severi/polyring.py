"""Sparse multivariate polynomials over cyclic-extension elements.

Terms map exponent vectors to nonzero coefficients and are kept in the
canonical monomial order (lexicographically descending exponent vectors,
the alphabetical order on monomial words shared with the Veronese basis).
Families of equal-degree polynomials are reduced to canonical spanning sets
by exact row reduction of their coefficient matrices; no ideal machinery
is involved.

`substitute_linear`, F(A x), is the only substitution: every composite the
program needs (a twisted quadric, an induced Veronese matrix, a pullback
through P o Ver) is linear, or linear followed by a relabelling of terms.
Its products with entries of A are memoized on A (`Matrix.product_memo`):
the splitting matrix of a model has few distinct entries and the Veronese
quadrics have coefficients +-1, so the twists of a whole ideal repeat the
same few products.  A Matrix is immutable and a product in L depends only
on the coordinates of its factors, so a remembered product is the product.
The exponent vectors of its results are kept on A too
(`Matrix.exponent_vectors`), so the twists of an ideal by one matrix share
one tuple per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, MixedDegrees, ShapeMismatch
from .fields import CyclicExtension, ExtElement, element_to_json
from .linalg import Matrix, rref

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class MultiPoly:
    ext: CyclicExtension
    nvars: int
    terms: tuple[tuple[Exponents, ExtElement], ...]  # canonical order, no zeros

    def terms_dict(self) -> dict[Exponents, ExtElement]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e, _ in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        other = self._coerce(other)
        acc = self.terms_dict()
        for e, c in other.terms:
            cur = acc.get(e)
            acc[e] = c if cur is None else cur + c
        return make_poly(self.ext, self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ext, self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = other if isinstance(other, ExtElement) else self.ext.from_base(other)
            scaled = ((e, x * c) for e, x in self.terms)
            return MultiPoly(self.ext, self.nvars,
                             tuple((e, y) for e, y in scaled if not y.is_zero()))
        if other.nvars != self.nvars:
            raise ShapeMismatch("polynomials in different rings")
        acc: dict[Exponents, ExtElement] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = acc.get(e)
                acc[e] = prod if cur is None else cur + prod
        return make_poly(self.ext, self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InputError("negative polynomial power")
        out = constant(self.ext, self.nvars, self.ext.one())
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ShapeMismatch("polynomials in different rings")
            return other
        c = other if isinstance(other, ExtElement) else self.ext.from_base(other)
        return constant(self.ext, self.nvars, c)

    def __repr__(self) -> str:
        from .grammar import format_poly
        return f"<{format_poly(self)}>"


def make_poly(ext: CyclicExtension, nvars: int,
              terms: Mapping[Exponents, ExtElement] | Iterable[tuple[Exponents, ExtElement]]
              ) -> MultiPoly:
    if isinstance(terms, Mapping):
        items = terms.items()
    else:
        items = list(terms)
    acc: dict[Exponents, ExtElement] = {}
    for e, c in items:
        e = tuple(int(x) for x in e)
        if len(e) != nvars or any(x < 0 for x in e):
            raise InputError(f"bad exponent vector {e}")
        cur = acc.get(e)
        acc[e] = c if cur is None else cur + c
    cleaned = tuple(sorted(((e, c) for e, c in acc.items() if not c.is_zero()),
                           key=lambda t: t[0], reverse=True))
    return MultiPoly(ext, nvars, cleaned)


def constant(ext: CyclicExtension, nvars: int, c) -> MultiPoly:
    if not isinstance(c, ExtElement):
        c = ext.from_base(c)
    if c.is_zero():
        return MultiPoly(ext, nvars, ())
    return MultiPoly(ext, nvars, (((0,) * nvars, c),))


def zero_poly(ext: CyclicExtension, nvars: int) -> MultiPoly:
    return MultiPoly(ext, nvars, ())


def variables(ext: CyclicExtension, nvars: int) -> tuple[MultiPoly, ...]:
    out = []
    for i in range(nvars):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        out.append(MultiPoly(ext, nvars, ((e, ext.one()),)))
    return tuple(out)


def monomial(ext: CyclicExtension, exps: Sequence[int]) -> MultiPoly:
    return make_poly(ext, len(exps), {tuple(exps): ext.one()})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def substitute_linear(F: MultiPoly, A: Matrix) -> MultiPoly:
    """F(A x): variable i becomes the linear form sum_j A[i][j] x_j.

    A sparse kernel that never builds the linear forms.  Each term c x^e is
    expanded variable by variable over the nonzero entries of the rows of A
    it uses (`Matrix.sparse_rows`), starting from c, so c is multiplied in
    once per row entry.  Partial products are keyed by the sorted tuple of
    the indices j they have picked up (a multiset of size deg x^e) and
    summed over all terms in one dict, and the result is assembled from
    those keys, dropping zero sums.

    The keys are sorted once, by key + (m,): for exponent vectors e, e' of
    any degrees, e > e' lexicographically exactly when key(e) + (m,) <
    key(e') + (m,), since at the first variable i where e exceeds e', key(e)
    repeats i where key(e') has a larger index or the sentinel m.  That is
    the canonical order, so no dense vector is compared.  Each key becomes
    its exponent vector through A's `exponent_vectors`, built on a miss, so
    the results over one A share a tuple per monomial.

    Each product v * a of a coefficient or partial product v with a row
    entry a is looked up in A's `product_memo` by the integer coordinates
    of v and a (`nums` and `den`), and stored there on a miss, so later
    calls with the same A reuse it.
    Coordinates name an element only within one extension, so F and A are
    checked to lie in the same extension first, memo or not.
    """
    if A.rows != A.cols or A.rows != F.nvars:
        raise ShapeMismatch(f"need a {F.nvars}x{F.nvars} matrix")
    if F.ext is not A.ext and F.ext != A.ext:
        raise InputError("elements of different extensions")
    rows, memo = A.sparse_rows, A.product_memo
    acc: dict[tuple[int, ...], ExtElement] = {}
    for e, c in F.terms:
        partial = {(): c}
        for i, k in enumerate(e):
            if not k:
                continue
            for _ in range(k):
                grown: dict[tuple[int, ...], ExtElement] = {}
                for key, v in partial.items():
                    vn, vd = v.nums, v.den
                    for j, a in rows[i]:
                        t = key + (j,)
                        if key and key[-1] > j:
                            t = tuple(sorted(t))
                        pair = (vn, vd, a.nums, a.den)
                        prod = memo.get(pair)
                        if prod is None:
                            prod = memo[pair] = v * a
                        cur = grown.get(t)
                        grown[t] = prod if cur is None else cur + prod
                partial = grown
        for key, v in partial.items():
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v
    m = F.nvars
    vectors = A.exponent_vectors
    terms = []
    for key in sorted(acc, key=lambda key: key + (m,)):
        v = acc[key]
        if v.is_zero():
            continue
        e = vectors.get(key)
        if e is None:
            dense = [0] * m
            for j in key:
                dense[j] += 1
            e = vectors[key] = tuple(dense)
        terms.append((e, v))
    return MultiPoly(F.ext, m, tuple(terms))


def _one_ring(S: Sequence[MultiPoly]) -> None:
    if len({F.nvars for F in S}) > 1:
        raise ShapeMismatch("family mixes polynomials in different rings")


def _common_degree(S: Sequence[MultiPoly]) -> Optional[int]:
    degs = set()
    for F in S:
        if F.is_zero():
            continue
        if not F.is_homogeneous():
            raise MixedDegrees("family member is not homogeneous")
        degs.add(F.degree())
    if len(degs) > 1:
        raise MixedDegrees(f"family mixes degrees {sorted(degs)}")
    return degs.pop() if degs else None


def family_support(S: Sequence[MultiPoly]) -> list[Exponents]:
    """The union monomial support of a homogeneous family in canonical
    order.  Members in different rings raise ShapeMismatch, nonzero members
    of different degrees MixedDegrees."""
    _one_ring(S)
    _common_degree(S)
    return sorted({e for F in S for e, _ in F.terms}, reverse=True)


def coefficient_matrix(S: Sequence[MultiPoly]) -> tuple[Matrix, list[Exponents]]:
    """Rows = polynomials, columns = union monomial support in canonical order."""
    if not S:
        raise InputError("empty family")
    support = sorted({e for F in S for e, _ in F.terms}, reverse=True)
    column = {e: j for j, e in enumerate(support)}
    rows = tuple([(column[e], c) for e, c in F.terms] for F in S)
    if not support:
        support = [(0,) * S[0].nvars]
    return Matrix(S[0].ext, len(support), rows), support


def span_reduce(S: Sequence[MultiPoly]) -> list[MultiPoly]:
    """Canonical spanning set: nonzero rows of the reduced row echelon form."""
    _one_ring(S)
    S = [F for F in S if not F.is_zero()]
    if not S:
        return []
    _common_degree(S)
    A, support = coefficient_matrix(S)
    R, pivots = rref(A)
    return [make_poly(S[0].ext, S[0].nvars, {support[j]: c for j, c in row})
            for row in R.sparse_rows[:len(pivots)]]


# ---------------------------------------------------------------------------
# JSON form: list of [exponent-tuple, coefficient-coordinates]
# ---------------------------------------------------------------------------

def poly_to_json(F: MultiPoly) -> list:
    return [[list(e), element_to_json(coeff)] for e, coeff in F.terms]
