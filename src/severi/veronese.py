"""Degree-d Veronese combinatorics on P^n.

The monomial basis is kept in alphabetical order: exponent vectors sorted
so the words X0^a0...Xn^an read lexicographically (X0^d first, Xn^d last).
For the degree-(n+1) embedding the basis has m = C(2n+1, n) monomials and
every invertible (n+1)x(n+1) matrix induces an m x m matrix on it
(`induced_matrix`, one `substitute_linear` per basis monomial, unscaled:
callers that normalize it scale the result).  No Veronese point is formed
here; the F_p-points of a model are enumerated in integers by
severi.verify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import DegreeTooSmall, InputError, Singular
from .fields import CyclicExtension
from .linalg import Matrix, rank
from .polyring import MultiPoly, monomial, substitute_linear


@dataclass(frozen=True)
class MonomialBasis:
    n: int
    degree: int
    list: tuple[tuple[int, ...], ...]
    m: int

    def pure_power_indices(self) -> tuple[int, ...]:
        """Indices of X_i^degree for i = 0..n, in variable order."""
        out = []
        for i in range(self.n + 1):
            e = tuple(self.degree if j == i else 0 for j in range(self.n + 1))
            out.append(self.list.index(e))
        return tuple(out)


def monomial_basis(n: int, degree: int) -> MonomialBasis:
    if n < 1 or degree < 1:
        raise InputError("need n >= 1 and degree >= 1")
    # stars and bars: the gaps between n bars placed among degree + n slots;
    # bar positions in descending order give the exponents in descending order
    slots = degree + n
    exps = tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                 for bars in reversed(list(itertools.combinations(range(slots), n))))
    basis = MonomialBasis(n, degree, exps, len(exps))
    assert basis.m == comb(n + degree, degree)
    return basis


def canonical_embedding(d: int) -> MonomialBasis:
    """Plane curve of degree d >= 4: the canonical map is Ver_{d-3} on P^2,
    landing in P^{g-1} with g = (d-1)(d-2)/2."""
    if d < 4:
        raise DegreeTooSmall(f"canonical embedding needs degree >= 4, got {d}")
    basis = monomial_basis(2, d - 3)
    assert basis.m == (d - 1) * (d - 2) // 2
    return basis


def induced_matrix(basis: MonomialBasis, A: Matrix) -> Matrix:
    """The unique B with Ver(A x) = B Ver(x), Ver(x) being the column of
    basis monomials at x.

    Row i of B is the coefficient row of basis monomial i composed with A,
    x^{b_i}(A x) = sum_j B[i][j] x^{b_j}.
    """
    n1 = basis.n + 1
    if A.rows != n1 or A.cols != n1:
        raise InputError(f"matrix must be {n1}x{n1}")
    ext = A.ext
    if rank(A) < A.rows:
        raise Singular("induced matrix of a singular matrix")
    column = {e: j for j, e in enumerate(basis.list)}
    return Matrix(ext, basis.m, tuple(
        [(column[e], c) for e, c in substitute_linear(monomial(ext, b), A).terms]
        for b in basis.list))


def ideal_quadric_count(n: int, degree: int) -> int:
    """Dimension C(m+1, 2) - C(2d+n, n) of the degree-2 part of the ideal of
    the degree-d Veronese image of P^n, m = C(n+d, d): quadrics in the m
    coordinates minus the degree-2d forms on P^n they restrict to."""
    return comb(comb(n + degree, degree) + 1, 2) - comb(2 * degree + n, n)


def veronese_ideal(basis: MonomialBasis, ext: CyclicExtension) -> list[MultiPoly]:
    """Binomial quadric generators of the degree-2 part of the Veronese ideal.

    Pairs (i <= j) are grouped by the exponent sum e_i + e_j; each group
    contributes the differences against its first pair.  The result is
    linearly independent: every non-leading pair appears in exactly one
    generator.  The first pair has the smallest i of its group, so its
    exponent vector is the lex-larger one and the two terms are built in
    canonical order.
    """
    if basis.degree != basis.n + 1:
        raise InputError("quadric generators are defined for the degree-(n+1) basis")
    one = ext.one()
    minus_one = -one
    return [MultiPoly(ext, basis.m, ((_pair_exp(basis.m, i0, j0), one),
                                     (_pair_exp(basis.m, i, j), minus_one)))
            for (i0, j0, i, j) in _ideal_pairs(basis)]


def _pair_exp(m: int, i: int, j: int) -> tuple[int, ...]:
    e = [0] * m
    e[i] += 1
    e[j] += 1
    return tuple(e)


def _ideal_pairs(basis: MonomialBasis) -> list[tuple[int, int, int, int]]:
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i in range(basis.m):
        for j in range(i, basis.m):
            key = tuple(a + b for a, b in zip(basis.list[i], basis.list[j]))
            groups.setdefault(key, []).append((i, j))
    out = []
    for key in sorted(groups, reverse=True):
        pairs = groups[key]
        if len(pairs) < 2:
            continue
        (i0, j0) = pairs[0]
        for (i, j) in pairs[1:]:
            out.append((i0, j0, i, j))
    return out


@dataclass(frozen=True)
class ParametrizationMap:
    """The monomial map of `basis` followed by the m x m matrix P."""

    basis: MonomialBasis
    matrix: Matrix
