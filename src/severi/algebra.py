"""The cyclic algebra (L/k, chi, a) as explicit structure constants over k.

Basis vectors are theta^i e^j with the j-major index j*(n+1) + i.  The
defining relations are e * lam = sigma'(lam) * e for lam in L, where
sigma' is the Galois generator with chi(sigma') = 1, and e^{n+1} = a.
The stored extension generator sigma has chi(sigma) = character_convention,
so sigma' = sigma^u with u the inverse of that convention mod n+1.

The associativity and center checks read the table T as D*T in Python
ints, D the lcm of its denominators over Q and 1 over F_p.  Associativity
is quadratic in T and the commutator rows of the center are linear in T,
so neither verdict changes; the table itself, and its emissions, keep the
base field's scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalDescentFailure, LengthMismatch, ZeroA
from .fields import (BaseField, CyclicExtension, Scalar, galois_apply, rank,
                     scalar_to_json)

Table = tuple[tuple[tuple[Scalar, ...], ...], ...]


@dataclass(frozen=True)
class CyclicAlgebra:
    extension: CyclicExtension
    a: Scalar
    dim: int
    table: Table  # table[i][j] = coordinates of basis_i * basis_j

    def basis_label(self, idx: int) -> str:
        n1 = self.extension.degree
        i, j = idx % n1, idx // n1
        theta = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        ee = "" if j == 0 else ("e" if j == 1 else f"e^{j}")
        return "*".join(x for x in (theta, ee) if x) or "1"


def _vec(field: BaseField, dim: int) -> list[Scalar]:
    return [field.zero()] * dim


def multiply_table(field: BaseField, table: Table,
                   x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple[Scalar, ...]:
    dim = len(table)
    if len(x) != dim or len(y) != dim:
        raise LengthMismatch(f"vectors must have length {dim}")
    out = _vec(field, dim)
    for i, xi in enumerate(x):
        if field.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            if field.is_zero(yj):
                continue
            c = field.mul(xi, yj)
            row = table[i][j]
            for t in range(dim):
                if not field.is_zero(row[t]):
                    out[t] = field.add(out[t], field.mul(c, row[t]))
    return tuple(out)


def build_algebra(L: CyclicExtension, a) -> CyclicAlgebra:
    """Structure constants of (L/k, chi, a); all defining identities are
    verified at construction."""
    a = L.base.coerce(a)
    if L.base.is_zero(a):
        raise ZeroA("a must be nonzero")
    n1 = L.degree
    dim = n1 * n1
    u = pow(L.character_convention, -1, n1)

    def sigma_prime(x, times=1):
        return galois_apply(L, x, (u * times) % n1)

    theta_pows = [L.theta() ** i for i in range(n1)]
    rows: list[list[tuple[Scalar, ...]]] = []
    for idx1 in range(dim):
        i1, j1 = idx1 % n1, idx1 // n1
        row = []
        for idx2 in range(dim):
            i2, j2 = idx2 % n1, idx2 // n1
            lam = theta_pows[i1] * sigma_prime(theta_pows[i2], j1)
            q, r = divmod(j1 + j2, n1)
            scale = L.base.one()
            for _ in range(q):
                scale = L.base.mul(scale, a)
            vec = _vec(L.base, dim)
            for t, c in enumerate(lam.coeffs):
                if not L.base.is_zero(c):
                    vec[r * n1 + t] = L.base.mul(scale, c)
            row.append(tuple(vec))
        rows.append(row)
    table: Table = tuple(tuple(r) for r in rows)
    A = CyclicAlgebra(L, a, dim, table)

    # e * lam = sigma'(lam) * e on the power basis of L
    e_vec = basis_vector(A, 0, 1)
    for i in range(n1):
        lam_vec = basis_vector(A, i, 0)
        lhs = multiply(A, e_vec, lam_vec)
        rhs = embed_semilinear(A, sigma_prime(theta_pows[i]), 1)
        if lhs != rhs:
            raise InternalDescentFailure("relation e*lam = sigma'(lam)*e failed")
    # e^{n+1} = a
    acc = basis_vector(A, 0, 0)
    for _ in range(n1):
        acc = multiply(A, acc, e_vec)
    want = _vec(L.base, dim)
    want[0] = a
    if acc != tuple(want):
        raise InternalDescentFailure("relation e^{n+1} = a failed")
    if not is_associative(A):
        raise InternalDescentFailure("structure constants are not associative")
    if center_dimension(A) != 1:
        raise InternalDescentFailure("center dimension is not 1")
    return A


def basis_vector(A: CyclicAlgebra, i: int, j: int) -> tuple[Scalar, ...]:
    """Coordinates of theta^i e^j."""
    n1 = A.extension.degree
    v = _vec(A.extension.base, A.dim)
    v[j * n1 + i] = A.extension.base.one()
    return tuple(v)


def embed_semilinear(A: CyclicAlgebra, lam, j: int) -> tuple[Scalar, ...]:
    """Coordinates of lam * e^j for lam in L."""
    n1 = A.extension.degree
    v = _vec(A.extension.base, A.dim)
    for t, c in enumerate(lam.coeffs):
        v[j * n1 + t] = c
    return tuple(v)


def multiply(A: CyclicAlgebra, x: Sequence[Scalar], y: Sequence[Scalar]
             ) -> tuple[Scalar, ...]:
    return multiply_table(A.extension.base, A.table, x, y)


def is_associative(A: CyclicAlgebra) -> bool:
    return table_is_associative(A.extension.base, A.table)


def table_is_associative(field: BaseField, table: Table) -> bool:
    """(b_i b_j) b_k = b_i (b_j b_k) on every basis triple.  Each side is a
    combination of table rows, over their nonzero entries only:
    sum_t T[i][j][t] T[t][k] on the left and sum_t T[j][k][t] T[i][t] on
    the right.  Both sides are quadratic in T, so they agree for T exactly
    when they agree for D*T (`_integer_table`); the sums run in Python
    ints, reduced mod p before the comparison over F_p."""
    dim = len(table)
    p = field.p
    nonzero = [[[(t, c) for t, c in enumerate(v) if c] for v in row]
               for row in _integer_table(field, table)]

    def combine(coeffs, rows):
        out = [0] * dim
        for t, c in coeffs:
            for s, x in rows[t]:
                out[s] += c * x
        return out if p is None else [x % p for x in out]

    columns = [[nonzero[t][k] for t in range(dim)] for k in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = combine(nonzero[i][j], columns[k])
                if left != combine(nonzero[j][k], nonzero[i]):
                    return False
    return True


def _integer_table(field: BaseField, table: Table) -> Sequence[Sequence[Sequence[int]]]:
    """D*T as Python ints: over Q, D is the lcm of the denominators of the
    entries; over F_p the entries are residues already and D = 1."""
    if field.p is not None:
        return table
    d = math.lcm(*(c.denominator for row in table for v in row for c in v))
    return [[[c.numerator * (d // c.denominator) for c in v] for v in row]
            for row in table]


def center_dimension(A: CyclicAlgebra) -> int:
    return table_center_dimension(A.extension.base, A.table)


def table_center_dimension(field: BaseField, table: Table) -> int:
    """Nullity of the linear system [x, b_i] = 0 over all basis elements.
    Its rows are linear in T, so they are built from D*T
    (`_integer_table`), whose rows have the same nullity."""
    dim = len(table)
    table = _integer_table(field, table)
    rows: list[list[Scalar]] = []
    for g in range(dim):
        # commutator with basis g, as dim linear conditions on x
        for t in range(dim):
            row = []
            for i in range(dim):
                row.append(field.sub(table[i][g][t], table[g][i][t]))
            rows.append(row)
    return dim - rank(field, map(enumerate, rows))


def diagonal_table(field: BaseField, copies: int) -> Table:
    """k + k + ... + k with componentwise product: a commutative guard whose
    center is everything (dimension = copies)."""
    rows = []
    for i in range(copies):
        row = []
        for j in range(copies):
            v = _vec(field, copies)
            if i == j:
                v[i] = field.one()
            row.append(tuple(v))
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def left_multiplication_matrix(A: CyclicAlgebra, x: Sequence[Scalar]
                               ) -> list[list[Scalar]]:
    """Matrix of y |-> x*y in the basis, rows indexed by output coordinate."""
    cols = []
    for j in range(A.dim):
        b = tuple(A.extension.base.one() if t == j else A.extension.base.zero()
                  for t in range(A.dim))
        cols.append(multiply(A, x, b))
    return [[cols[j][i] for j in range(A.dim)] for i in range(A.dim)]


def zero_divisor_from_witness(A: CyclicAlgebra, lam) -> tuple[Scalar, ...]:
    """e - lam, which kills a nonzero vector when norm(lam) = a; its left
    multiplication operator is then singular."""
    L = A.extension
    e_vec = basis_vector(A, 0, 1)
    lam_vec = embed_semilinear(A, lam, 0)
    return tuple(L.base.sub(a_, b_) for a_, b_ in zip(e_vec, lam_vec))


def left_multiplication_is_singular(A: CyclicAlgebra, x: Sequence[Scalar]) -> bool:
    M = left_multiplication_matrix(A, x)
    return rank(A.extension.base, map(enumerate, M)) < A.dim


def table_to_json(A: CyclicAlgebra) -> list:
    return [[[scalar_to_json(c) for c in A.table[i][j]]
             for j in range(A.dim)] for i in range(A.dim)]
