"""Sparse homogeneous polynomials: substitution, span comparison, and the
reference Jacobian of the tests."""
import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import (evaluate, in_span, linear_forms,
                               naive_substitute, span_equal)
from point_oracle import jacobian
from severi import (
    ExtElement,
    cyclic_cocycle,
    find_normal_basis,
    format_poly,
    frobenius_extension,
    from_rows,
    lift_to_veronese,
    make_poly,
    make_shanks_cubic,
    monomial_basis,
    mul,
    split_structured,
    substitute_linear,
    veronese_ideal,
)
from severi.errors import InputError, MixedDegrees, ShapeMismatch
from severi.polyring import (
    monomial,
    span_reduce,
    variables,
    zero_poly,
)


def F(x):
    return Fraction(x)


def fermat_cubic(L, a):
    return make_poly(L, 3, {(3, 0, 0): L.one(),
                            (0, 3, 0): L.from_base(a),
                            (0, 0, 3): L.from_base(a * a)})


def test_substitute_identity(shanks1):
    from severi import identity
    Fp = fermat_cubic(shanks1, F(1))
    assert substitute_linear(Fp, identity(shanks1, 3)) == Fp


def test_substitute_cyclic_invariance(shanks1):
    # the twisted Fermat cubic is an eigenvector of the companion action
    Fp = fermat_cubic(shanks1, F(2))
    A = cyclic_cocycle(shanks1, F(2)).at_generator
    assert substitute_linear(Fp, A) == Fp * shanks1.from_base(F(2))


def test_substitute_diagonal(shanks1):
    xy = monomial(shanks1, (1, 1))
    D = from_rows(shanks1, [[2, 0], [0, 3]])
    assert substitute_linear(xy, D) == xy * shanks1.from_base(F(6))


def test_substitute_shape_mismatch(shanks1):
    xy = monomial(shanks1, (1, 1))
    with pytest.raises(ShapeMismatch):
        substitute_linear(xy, from_rows(shanks1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_jacobian_power_rule(shanks1):
    a = F(2)
    Fp = fermat_cubic(shanks1, a)
    px, py, pz = jacobian(Fp)
    assert px == monomial(shanks1, (2, 0, 0)) * shanks1.from_base(3)
    assert py == monomial(shanks1, (0, 2, 0)) * shanks1.from_base(3 * a)
    assert pz == monomial(shanks1, (0, 0, 2)) * shanks1.from_base(3 * a * a)


def test_char2_partials_common_zero_only_origin(f2):
    # X^3+Y^3+Z^3 over F_2: partials X^2, Y^2, Z^2
    Fp = fermat_cubic(f2, 1)
    parts = jacobian(Fp)
    assert parts[0] == monomial(f2, (2, 0, 0))
    for pt in itertools.product(range(2), repeat=3):
        if pt == (0, 0, 0):
            continue
        assert any(not evaluate(g, pt).is_zero() for g in parts)


def test_span_equal_scalar_multiple(shanks1):
    x, y = variables(shanks1, 2)
    assert span_equal([x + y], [(x + y) * shanks1.from_base(2)])


def test_span_equal_change_of_basis(shanks1):
    x, y = variables(shanks1, 2)
    assert span_equal([x, y], [x + y, x - y])


def test_span_not_equal(shanks1):
    assert not span_equal([monomial(shanks1, (2, 0))], [monomial(shanks1, (1, 1))])


def test_span_mixed_degrees_rejected(shanks1):
    x, y = variables(shanks1, 2)
    with pytest.raises(MixedDegrees):
        span_equal([x, x * y], [y])
    # families of different (internally uniform) degrees simply differ
    assert not span_equal([x], [x * y])


def test_span_mixed_rings_rejected(shanks1):
    x2, _ = variables(shanks1, 2)
    x3, _, _ = variables(shanks1, 3)
    with pytest.raises(ShapeMismatch):
        span_reduce([x2, x3])
    with pytest.raises(ShapeMismatch):
        span_reduce([x2, zero_poly(shanks1, 3)])


def test_span_reduce_and_in_span(shanks1):
    x, y = variables(shanks1, 2)
    reduced = span_reduce([x + y, x - y, x])
    assert len(reduced) == 2
    assert in_span(y, reduced)
    assert not in_span(zero_poly(shanks1, 2) + x * shanks1.theta(), [y])


def test_homogeneity_bookkeeping(shanks1):
    Fp = fermat_cubic(shanks1, F(2))
    assert Fp.degree() == 3
    assert Fp.is_homogeneous()


# ---------------------------------------------------------------------------
# sampled laws
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)


def rand_poly(L, rng, nvars=3, deg=2):
    exps = [e for e in itertools.product(range(deg + 1), repeat=nvars)
            if sum(e) == deg]
    terms = {}
    for e in rng.sample(exps, 3):
        terms[e] = L.el([F(rng.randint(-3, 3)) for _ in range(3)])
    return make_poly(L, nvars, terms)


def rand_mat(L, rng, size=3):
    return from_rows(L, [[F(rng.randint(-2, 2)) for _ in range(size)]
                         for _ in range(size)])


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_substitution_contravariant_composition(seed):
    L = make_shanks_cubic(1)
    rng = random.Random(seed)
    Fp = rand_poly(L, rng)
    A, B = rand_mat(L, rng), rand_mat(L, rng)
    assert substitute_linear(Fp, mul(A, B)) == \
        substitute_linear(substitute_linear(Fp, A), B)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_substitution_preserves_degree(seed):
    L = make_shanks_cubic(1)
    rng = random.Random(seed)
    Fp = rand_poly(L, rng)
    G = substitute_linear(Fp, rand_mat(L, rng))
    assert G.is_zero() or (G.is_homogeneous() and G.degree() == 2)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_euler_identity(seed):
    L = make_shanks_cubic(1)
    rng = random.Random(seed)
    Fp = rand_poly(L, rng)
    xs = variables(L, 3)
    total = zero_poly(L, 3)
    for xi, dFi in zip(xs, jacobian(Fp)):
        total = total + xi * dFi
    assert total == Fp * L.from_base(2)


def test_euler_identity_char_divides_degree(f2):
    # char 2 divides deg 2: Euler sum collapses to 0, not 2F
    x, y = variables(f2, 2)
    Fp = x * y
    total = zero_poly(f2, 2)
    for xi, dFi in zip((x, y), jacobian(Fp)):
        total = total + xi * dFi
    assert total.is_zero()


@functools.cache
def twist_field(name):
    return make_shanks_cubic(1) if name == "shanks1" else frobenius_extension(name, 4)


def rand_mixed_poly(L, rng, nvars):
    """A constant term, a term of degree 3 or 4 and up to three more terms of
    degree 0..4, with random (possibly zero) coefficients."""
    terms = {}
    for d in [0, rng.randint(3, 4)] + [rng.randint(0, 4) for _ in range(rng.randint(0, 3))]:
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = L.el([rng.randint(-3, 3) for _ in range(L.degree)])
    return make_poly(L, nvars, terms)


def rand_twist_matrix(L, rng, m, kind):
    """`sparse`: entries nonzero with probability 0.6 and one all-zero row;
    `monomial`: a scaled permutation matrix."""
    def entry():
        return L.el([rng.randint(-2, 2) for _ in range(L.degree)])
    if kind == "monomial":
        perm = rng.sample(range(m), m)
        return from_rows(L, [[entry() if j == perm[i] else 0 for j in range(m)]
                             for i in range(m)])
    zero_row = rng.randrange(m)
    return from_rows(L, [[entry() if i != zero_row and rng.random() < 0.6 else 0
                          for _ in range(m)] for i in range(m)])


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(["shanks1", 5, 7]), st.sampled_from(["sparse", "monomial"]))
def test_substitute_linear_matches_all_forms(seed, field, kind):
    # F uses only some of its five variables; every form is built here
    L = twist_field(field)
    rng = random.Random(seed)
    m = 5
    Fp = rand_mixed_poly(L, rng, m)
    A = rand_twist_matrix(L, rng, m, kind)
    forms = linear_forms(A)
    assert substitute_linear(Fp, A) == naive_substitute(Fp, forms)
    # a second polynomial through the same A reads the products the first
    # one left in A's memo
    Gp = rand_mixed_poly(L, rng, m)
    assert substitute_linear(Gp, A) == naive_substitute(Gp, forms)


def test_substitute_linear_rejects_other_extension_with_warm_memo():
    # the same coordinates over Shanks t = 2 would hit products formed over
    # t = 1; the extension check comes before the memo, warm or cold
    L1, L2 = make_shanks_cubic(1), make_shanks_cubic(2)
    rng = random.Random(7)
    Fp = rand_mixed_poly(L1, rng, 3)
    F2 = make_poly(L2, 3, {e: L2.el(c.coeffs) for e, c in Fp.terms})
    rows = [[L1.el([rng.randint(-2, 2) for _ in range(3)]) for _ in range(3)]
            for _ in range(3)]
    A = from_rows(L1, rows)
    with pytest.raises(InputError):
        substitute_linear(F2, from_rows(L1, rows))
    substitute_linear(Fp, A)
    assert A.product_memo
    with pytest.raises(InputError):
        substitute_linear(F2, A)


# sha256 of the format_poly lines of the 465 twists below, recorded before
# substitute_linear memoized its products
N3_TWIST_DIGEST = "9cbda39f28bbfe3d40660f5c18e0b2c2b2d90bb2383fad9606a9f188962ae1a3"


def test_n3_twist_reuses_products(monkeypatch):
    # M has 133 nonzero entries but few distinct values and every quadric
    # coefficient is +-1: the whole family needs a few hundred products and
    # a few hundred exponent vectors
    L = frobenius_extension(5, 4)
    M = split_structured(lift_to_veronese(cyclic_cocycle(L, 2)), find_normal_basis(L))
    quads = veronese_ideal(monomial_basis(3, 4), L)
    assert len(quads) == 465
    calls = 0
    plain_mul = ExtElement.__mul__

    def counted(x, y):
        nonlocal calls
        calls += 1
        return plain_mul(x, y)

    monkeypatch.setattr(ExtElement, "__mul__", counted)
    twisted = [substitute_linear(Q, M) for Q in quads]
    monkeypatch.undo()
    assert calls <= 600
    # the 12,936 terms share one exponent vector per monomial of degree 2
    # in 35 variables, C(36, 2) = 630 at most
    assert sum(len(F.terms) for F in twisted) == 12936
    assert len({id(e) for F in twisted for e, _ in F.terms}) <= 630
    text = "\n".join(format_poly(F) for F in twisted)
    assert hashlib.sha256(text.encode()).hexdigest() == N3_TWIST_DIGEST
