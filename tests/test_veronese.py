"""Degree-(n+1) Veronese: ordering, parametrization, induced matrices, ideal."""
import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import (evaluate, in_span, linear_forms,
                               naive_substitute, plane_coordinates)
from severi import (
    ParametrizationMap,
    canonical_embedding,
    cyclic_cocycle,
    from_rows,
    frobenius_extension,
    identity,
    induced_matrix,
    make_shanks_cubic,
    monomial_basis,
    mul,
    pullback_to_plane,
    rank,
    veronese_ideal,
)
from severi.errors import DegreeTooSmall, InputError, Singular
from severi.polyring import monomial, span_reduce, variables


def F(x):
    return Fraction(x)


def test_basis_2_3_alphabetical_order():
    mb = monomial_basis(2, 3)
    assert mb.m == 10
    assert mb.list == ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
                       (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))
    # the index conventions everything downstream relies on
    assert mb.list.index((3, 0, 0)) == 0
    assert mb.list.index((1, 1, 1)) == 4
    assert mb.list.index((0, 3, 0)) == 6
    assert mb.list.index((0, 0, 3)) == 9
    assert mb.pure_power_indices() == (0, 6, 9)


def test_basis_1_2():
    mb = monomial_basis(1, 2)
    assert mb.list == ((2, 0), (1, 1), (0, 2))
    assert mb.m == 3


def test_basis_3_4_count():
    assert monomial_basis(3, 4).m == comb(7, 3) == 35


def test_basis_matches_brute_force_enumeration():
    for n in range(1, 6):
        for d in range(1, 7):
            brute = sorted((e for e in itertools.product(range(d + 1), repeat=n + 1)
                            if sum(e) == d), reverse=True)
            assert monomial_basis(n, d).list == tuple(brute)


def test_basis_is_built_without_enumerating_all_tuples():
    # 10^9 exponent tuples would be enumerated for the 24310 that sum to 9
    t0 = time.perf_counter()
    assert monomial_basis(8, 9).m == 24310
    assert time.perf_counter() - t0 < 2.0


def test_basis_bad_input():
    with pytest.raises(InputError):
        monomial_basis(0, 3)


def test_m_formula():
    for n in (1, 2, 3, 4):
        assert monomial_basis(n, n + 1).m == comb(2 * n + 1, n)


def test_canonical_embedding_degrees():
    b6 = canonical_embedding(6)
    assert b6.degree == 3 and b6.m == 10
    b4 = canonical_embedding(4)
    assert b4.degree == 1 and b4.m == 3
    assert canonical_embedding(5).m == comb(4, 2) == 6
    with pytest.raises(DegreeTooSmall):
        canonical_embedding(3)


def test_canonical_embedding_is_the_veronese_basis():
    assert canonical_embedding(6) == monomial_basis(2, 3)


def test_veronese_injective_on_f2_plane(f2):
    mb = monomial_basis(2, 3)
    seen = set()
    for pt in itertools.product(range(2), repeat=3):
        if pt == (0, 0, 0):
            continue
        img = tuple(evaluate(monomial(f2, b), pt).coeffs for b in mb.list)
        seen.add(img)
    assert len(seen) == 7


def test_induced_identity(shanks1):
    mb = monomial_basis(2, 3)
    assert induced_matrix(mb, identity(shanks1, 3)) == identity(shanks1, 10)


def test_induced_companion_entries(shanks1):
    mb = monomial_basis(2, 3)
    A = cyclic_cocycle(shanks1, F(2)).at_generator
    B = induced_matrix(mb, A).scale(shanks1.from_base(Fraction(1, 2)))
    # X^3 -> (aZ)^3 = a^3 Z^3, normalized to a^2 on the Z^3 column
    assert B.as_rows()[0][9] == shanks1.from_base(F(4))
    # XYZ -> aXYZ, normalized to 1
    assert B.as_rows()[4][4] == shanks1.one()


def test_induced_normalized_cube_is_identity(shanks1):
    mb = monomial_basis(2, 3)
    A = cyclic_cocycle(shanks1, F(2)).at_generator
    B = induced_matrix(mb, A).scale(shanks1.from_base(Fraction(1, 2)))
    assert mul(mul(B, B), B) == identity(shanks1, 10)
    raw = induced_matrix(mb, A)
    assert mul(mul(raw, raw), raw) == identity(shanks1, 10).scale(
        shanks1.from_base(F(8)))


def test_induced_singular_rejected(shanks1):
    mb = monomial_basis(2, 3)
    with pytest.raises(Singular):
        induced_matrix(mb, from_rows(shanks1, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))


MULTIPLICATIVE_CASES = {
    # entries in k = Q, in k = F_5, and in L over each
    "Q": (make_shanks_cubic(1), False),
    "F5": (frobenius_extension(5, 3), False),
    "L-shanks1": (make_shanks_cubic(1), True),
    "L-F125": (frobenius_extension(5, 3), True),
}


@pytest.mark.parametrize("case", sorted(MULTIPLICATIVE_CASES))
@pytest.mark.parametrize("n", [2, 3])
def test_induced_matrix_is_multiplicative(n, case):
    """Ver(AB) = Ver(A) Ver(B) and Ver(I) = I, so Ver(A) is invertible
    when A is."""
    L, in_L = MULTIPLICATIVE_CASES[case]
    mb = monomial_basis(n, n + 1)
    rng = random.Random(n)

    def entry():
        if in_L:
            return L.el([rng.randint(-2, 2) for _ in range(L.degree)])
        return L.from_base(L.base.coerce(rng.randint(-2, 2)))

    def rand():
        while True:
            A = from_rows(L, [[entry() for _ in range(n + 1)] for _ in range(n + 1)])
            if rank(A) == n + 1:
                return A
    A, B = rand(), rand()
    VA, VB = induced_matrix(mb, A), induced_matrix(mb, B)
    assert induced_matrix(mb, mul(A, B)) == mul(VA, VB)
    assert induced_matrix(mb, identity(L, n + 1)) == identity(L, mb.m)
    assert rank(VA) == mb.m


def test_ideal_contains_exponent_identity(shanks1):
    mb = monomial_basis(2, 3)
    gens = veronese_ideal(mb, shanks1)
    # X^3 * Y^3 = X^2Y * XY^2
    from severi.polyring import make_poly
    q = make_poly(shanks1, 10, {
        tuple(1 if j in (0, 6) else 0 for j in range(10)): shanks1.one(),
        tuple(1 if j in (1, 3) else 0 for j in range(10)): -shanks1.one(),
    })
    assert in_span(q, gens)


def test_ideal_dimension_27(shanks1):
    mb = monomial_basis(2, 3)
    gens = veronese_ideal(mb, shanks1)
    # quadrics in 10 vars minus sextics in 3 vars: C(11,2) - 28 = 27
    assert len(span_reduce(gens)) == comb(11, 2) - comb(8, 2) == 27


def test_ideal_conic(shanks1):
    mb = monomial_basis(1, 2)
    gens = veronese_ideal(mb, shanks1)
    reduced = span_reduce(gens)
    assert len(reduced) == 1
    from severi.polyring import make_poly
    conic = make_poly(shanks1, 3, {(1, 0, 1): shanks1.one(),
                                   (0, 2, 0): -shanks1.one()})
    assert in_span(conic, reduced)


def test_ideal_vanishes_on_parametrization(shanks1):
    mb = monomial_basis(2, 3)
    coords = plane_coordinates(mb, identity(shanks1, mb.m))
    for q in veronese_ideal(mb, shanks1):
        assert naive_substitute(q, coords).is_zero()


@pytest.mark.parametrize("n, field", [(1, "f3"), (2, "f5"), (3, "f3"), (4, "f5"),
                                      (2, "shanks1")])
def test_ideal_binomials_are_canonical(n, field, request):
    # the binomials are built term by term; each must be what the validating
    # constructor makes of the same terms
    from severi.polyring import make_poly
    L = request.getfixturevalue(field)
    gens = veronese_ideal(monomial_basis(n, n + 1), L)
    assert len(gens) > 0
    for q in gens:
        assert q == make_poly(L, q.nvars, q.terms)


def test_induced_defining_property_symbolic(shanks1):
    # Ver(A x) = induced(A) . Ver(x) as polynomial vectors
    from severi.polyring import zero_poly
    mb = monomial_basis(2, 3)
    A = from_rows(shanks1, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    forms = linear_forms(A)
    lhs = [naive_substitute(monomial(shanks1, b), forms) for b in mb.list]
    B = induced_matrix(mb, A)
    vx = [monomial(shanks1, b) for b in mb.list]
    for i, row in enumerate(B.sparse_rows):
        acc = zero_poly(shanks1, 3)
        for j, c in row:
            acc = acc + vx[j] * c
        assert lhs[i] == acc


def test_parametrization_is_matrix_after_monomials(model_q):
    # coordinate i of P o Ver, the pullback of w_i, is sum_j P[i][j] times
    # basis monomial j
    from severi.polyring import zero_poly
    L, mb = model_q.extension, model_q.parametrization.basis
    rng = random.Random(3)
    P = from_rows(L, [[L.el([F(rng.randint(-2, 2)) for _ in range(3)])
                       for _ in range(10)] for _ in range(10)])
    model = replace(model_q, parametrization=ParametrizationMap(mb, P))
    for w, row in zip(variables(L, 10), P.as_rows()):
        acc = zero_poly(L, 3)
        for j, b in enumerate(mb.list):
            acc = acc + monomial(L, b) * row[j]
        assert pullback_to_plane(model, w) == acc


seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_induced_multiplicative(seed):
    L = make_shanks_cubic(1)
    mb = monomial_basis(2, 3)
    rng = random.Random(seed)
    from severi.linalg import rank

    def rand():
        while True:
            A = from_rows(L, [[F(rng.randint(-2, 2)) for _ in range(3)]
                              for _ in range(3)])
            if rank(A) == 3:
                return A
    A, B = rand(), rand()
    assert induced_matrix(mb, mul(A, B)) == mul(induced_matrix(mb, A),
                                                induced_matrix(mb, B))


INDUCED_FIELDS = {"Q": make_shanks_cubic(1), "F5": frobenius_extension(5, 3)}


@pytest.mark.parametrize("field", sorted(INDUCED_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(seeds)
def test_induced_matrix_matches_naive_expansion(n, field, seed):
    # row i of induced(A) holds the coefficients of x^{b_i}(A x), expanded
    # by the oracle, in basis order
    from severi.linalg import rank
    L = INDUCED_FIELDS[field]
    mb = monomial_basis(n, n + 1)
    rng = random.Random(seed)
    while True:
        A = from_rows(L, [[rng.randint(-2, 2) for _ in range(n + 1)]
                          for _ in range(n + 1)])
        if rank(A) == n + 1:
            break
    B = induced_matrix(mb, A)
    forms = linear_forms(A)
    for b, row in zip(mb.list, B.as_rows()):
        image = naive_substitute(monomial(L, b), forms)
        assert image.is_homogeneous() and image.degree() == n + 1
        coeffs = image.terms_dict()
        assert [coeffs.get(e, L.zero()) for e in mb.list] == row
