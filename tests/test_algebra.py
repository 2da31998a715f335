"""Cyclic algebra structure constants, associativity, center, splitness."""
from fractions import Fraction

import pytest

from severi import (
    GF,
    build_algebra,
    center_dimension,
    diagonal_table,
    galois_apply,
    is_associative,
    left_multiplication_is_singular,
    make_shanks_cubic,
    multiply,
    norm_witness,
    zero_divisor_from_witness,
)
from severi.algebra import (
    basis_vector,
    embed_semilinear,
    table_center_dimension,
    table_is_associative,
    table_to_json,
)
from severi.errors import LengthMismatch, ZeroA


def F(x):
    return Fraction(x)


def test_dimension_9(shanks1):
    A = build_algebra(shanks1, F(2))
    assert A.dim == 9


def test_dimension_16(zeta5):
    A = build_algebra(zeta5, F(5))
    assert A.dim == 16


def test_zero_a_rejected(shanks1):
    with pytest.raises(ZeroA):
        build_algebra(shanks1, F(0))


def test_e_cubed_is_a(shanks1):
    A = build_algebra(shanks1, F(2))
    e = basis_vector(A, 0, 1)
    e3 = multiply(A, e, multiply(A, e, e))
    expected = list(embed_semilinear(A, shanks1.from_base(2), 0))
    assert list(e3) == expected


def test_unit_is_neutral(shanks1):
    A = build_algebra(shanks1, F(2))
    one = basis_vector(A, 0, 0)
    x = basis_vector(A, 2, 1)
    assert multiply(A, one, x) == x
    assert multiply(A, x, one) == x


def test_commutation_relation(shanks1):
    # e . lam = sigma'(lam) . e with chi(sigma') = 1
    A = build_algebra(shanks1, F(2))
    u = pow(shanks1.character_convention, -1, 3)
    e = basis_vector(A, 0, 1)
    for lam in (shanks1.theta(), shanks1.theta() ** 2 + shanks1.one()):
        lhs = multiply(A, e, embed_semilinear(A, lam, 0))
        rhs = multiply(A, embed_semilinear(A, galois_apply(shanks1, lam, u), 0), e)
        assert lhs == rhs


def test_length_mismatch(shanks1):
    A = build_algebra(shanks1, F(2))
    with pytest.raises(LengthMismatch):
        multiply(A, (1, 2), basis_vector(A, 0, 0))


def test_associativity_all_triples(shanks1):
    A = build_algebra(shanks1, F(2))
    assert is_associative(A)


def field_is_associative(field, table):
    # the reference: the check on T itself in the field's scalars (Fraction
    # over Q), each side of every triple summed with field.add and field.mul
    dim = len(table)
    nonzero = [[[(t, c) for t, c in enumerate(v) if not field.is_zero(c)]
                for v in row] for row in table]

    def combine(coeffs, rows):
        out = [field.zero()] * dim
        for t, c in coeffs:
            for s, x in rows[t]:
                out[s] = field.add(out[s], field.mul(c, x))
        return out

    columns = [[nonzero[t][k] for t in range(dim)] for k in range(dim)]
    return all(combine(nonzero[i][j], columns[k]) == combine(nonzero[j][k], nonzero[i])
               for i in range(dim) for j in range(dim) for k in range(dim))


@pytest.mark.parametrize("case", ["shanks2", "zeta5", "f5"])
def test_integer_associativity_agrees_with_field_arithmetic(case, zeta5, f5):
    L, a = {"shanks2": (make_shanks_cubic(2), F(-9) / 2),
            "zeta5": (zeta5, F(5)), "f5": (f5, 2)}[case]
    A = build_algebra(L, a)
    k = L.base
    assert table_is_associative(k, A.table)
    assert field_is_associative(k, A.table)
    # one nonzero structure constant of the last basis square, plus one
    table = [[list(v) for v in row] for row in A.table]
    cell = table[-1][-1]
    t = next(t for t, c in enumerate(cell) if not k.is_zero(c))
    cell[t] = k.add(cell[t], k.one())
    assert not table_is_associative(k, table)
    assert not field_is_associative(k, table)


def test_center_dimension_f5(f5):
    A = build_algebra(f5, 2)
    assert center_dimension(A) == 1
    assert is_associative(A)


def test_center_dimension_q(shanks1):
    A = build_algebra(shanks1, F(2))
    assert center_dimension(A) == 1


def test_commutative_guard():
    # componentwise product on three copies: center is everything
    k = GF(5)
    table = diagonal_table(k, 3)
    assert table_is_associative(k, table)
    assert table_center_dimension(k, table) == 3


def test_finite_field_zero_divisor(f5):
    # a is a norm over a finite field; e - lam then kills a nonzero vector
    A = build_algebra(f5, 2)
    w = norm_witness(f5, 2)
    assert w.status == "witness"
    x = zero_divisor_from_witness(A, w.witness)
    assert any(v != 0 for v in x)
    assert left_multiplication_is_singular(A, x)


def test_generic_left_multiplication_invertible(shanks1):
    A = build_algebra(shanks1, F(2))
    e = basis_vector(A, 0, 1)
    assert not left_multiplication_is_singular(A, e)


def test_table_json_shape(shanks1):
    A = build_algebra(shanks1, F(2))
    blob = table_to_json(A)
    assert len(blob) == 9
    assert all(len(row) == 9 for row in blob)
    assert all(len(cell) == 9 for row in blob for cell in row)


def test_basis_labels(shanks1):
    A = build_algebra(shanks1, F(2))
    labels = [A.basis_label(i) for i in range(9)]
    assert labels[0] == "1"
    assert "e" in labels
    assert labels[-1] == "t^2*e^2"
