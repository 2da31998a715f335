"""Base fields, cyclic extensions, Galois action, norm/trace, witnesses."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi import (
    GF,
    QQ,
    InputError,
    find_normal_basis,
    frobenius_extension,
    galois_apply,
    make_extension,
    make_shanks_cubic,
    norm,
    norm_witness,
)
from severi.errors import NotGalois, NotIrreducible, WrongOrder, ZeroA
from severi.fields import (BaseField, NormalBasis, conjugates, element_to_json,
                           poly_check_irreducible, rank, row_reduce, scalar_to_json)
from severi.cohomology import cyclic_cocycle, lift_to_veronese, split_structured
from severi.polyring import family_support, substitute_linear
from severi.twisting import _coordinate_rows, orbit_representatives
from severi.veronese import monomial_basis, veronese_ideal


def F(x):
    return Fraction(x)


def trace(L, x):
    """The sum of the conjugates, the reference for `find_normal_basis`'s
    trace_value."""
    return sum(conjugates(L, x), L.zero()).base_value()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_shanks_t1_defining_data(shanks1):
    assert shanks1.f == (F(-1), F(-4), F(-1), F(1))
    assert shanks1.g == (F(-2), F(-2), F(1))
    assert shanks1.degree == 3
    assert shanks1.base is QQ


def test_shanks_t0_defining_poly():
    L = make_shanks_cubic(0)
    assert L.f == (F(-1), F(-3), F(0), F(1))


def test_shanks_generator_has_exact_order_3(shanks1):
    th = shanks1.theta()
    orbit = [galois_apply(shanks1, th, j) for j in range(1, 4)]
    assert orbit[0] != th and orbit[1] != th
    assert orbit[2] == th


def test_shanks_generator_is_inverse_formula(shanks1):
    # sigma(theta) = -1/(1+theta)
    th = shanks1.theta()
    assert galois_apply(shanks1, th, 1) == -(shanks1.one() + th).inverse()


def test_make_extension_frobenius_f8():
    L = make_extension(GF(2), [1, 1, 0, 1], [0, 0, 1])
    assert L.degree == 3
    assert galois_apply(L, L.theta(), 3) == L.theta()


def test_make_extension_identity_map_rejected():
    with pytest.raises(WrongOrder):
        make_extension(QQ, [-2, 0, 0, 1], [0, 1])


def test_make_extension_shanks_data_valid():
    L = make_extension(QQ, [-1, -4, -1, 1], [-2, -2, 1])
    assert L.degree == 3


def test_make_extension_reducible_rejected():
    with pytest.raises(NotIrreducible):
        make_extension(QQ, [-1, 0, 0, 1], [0, 1])  # x^3 - 1


def test_make_extension_non_root_map_rejected():
    with pytest.raises(NotGalois):
        make_extension(QQ, [-1, -4, -1, 1], [1, 1])


def test_frobenius_extension_f8_is_first_odometer_choice(f2):
    # first monic irreducible cubic over F_2 with constant varying fastest
    assert f2.f == (1, 1, 0, 1)
    assert f2.g == (0, 0, 1)


# ---------------------------------------------------------------------------
# galois action
# ---------------------------------------------------------------------------

def test_galois_apply_theta(shanks1):
    img = galois_apply(shanks1, shanks1.theta(), 1)
    assert img.coeffs == (F(-2), F(-2), F(1))


def test_galois_apply_fixes_constants(shanks1):
    c = shanks1.from_base(5)
    assert galois_apply(shanks1, c, 2) == c


def test_galois_apply_full_orbit_f8(f2):
    assert galois_apply(f2, f2.theta(), 3) == f2.theta()


# ---------------------------------------------------------------------------
# norm and trace
# ---------------------------------------------------------------------------

def test_norm_trace_theta_vieta(shanks1):
    # f = x^3 - x^2 - 4x - 1: product of roots 1, sum of roots 1
    assert norm(shanks1, shanks1.theta()) == F(1)
    assert trace(shanks1, shanks1.theta()) == F(1)


def test_norm_trace_zero(shanks1):
    assert norm(shanks1, shanks1.zero()) == F(0)
    assert trace(shanks1, shanks1.zero()) == F(0)


def test_norm_one_plus_theta(shanks1):
    # norm(c + theta) = (-1)^deg f(-c); f(-1) = 1
    assert norm(shanks1, shanks1.one() + shanks1.theta()) == F(-1)


def test_conjugates_length(shanks1):
    assert len(conjugates(shanks1, shanks1.theta())) == 3


# ---------------------------------------------------------------------------
# normal bases
# ---------------------------------------------------------------------------

def test_find_normal_basis_f8_rejects_theta(f2):
    # trace(theta) = theta + theta^2 + theta^4 = 0 in F_8
    assert trace(f2, f2.theta()) == 0
    nb = find_normal_basis(f2, seed=f2.theta())
    assert nb.elements[0] == f2.theta() + f2.one()
    assert nb.trace_value == 1


def test_find_normal_basis_shanks_accepts_theta(shanks1, nb1):
    assert nb1.elements[0] == shanks1.theta()
    assert nb1.trace_value == F(1)
    for i in range(3):
        assert galois_apply(shanks1, nb1.elements[i], 1) == nb1.elements[(i + 1) % 3]


def test_find_normal_basis_zero_seed_advances(shanks1, nb1):
    assert find_normal_basis(shanks1, seed=shanks1.zero()) == nb1


@pytest.mark.parametrize("c", [1, -2])
def test_normal_basis_rejects_dependent_orbit(shanks1, f5, c):
    # a base-field element is its own sigma-orbit: cyclic, nonzero trace, rank 1
    for L in (shanks1, f5):
        x = L.from_base(c)
        with pytest.raises(InputError, match="linearly dependent"):
            NormalBasis((x, x, x), L.base.coerce(3 * c))


# ---------------------------------------------------------------------------
# norm witnesses
# ---------------------------------------------------------------------------

def test_norm_witness_finite_field_always_found(f5):
    for a in range(1, 5):
        w = norm_witness(f5, a)
        assert w.status == "witness"
        assert norm(f5, w.witness) == a


def test_norm_witness_minus_one(shanks1):
    w = norm_witness(shanks1, F(-1))
    assert w.status == "witness"
    assert norm(shanks1, w.witness) == F(-1)


def test_norm_witness_one(shanks1):
    w = norm_witness(shanks1, F(1))
    assert w.status == "witness"
    assert norm(shanks1, w.witness) == F(1)


def test_norm_witness_zero_rejected(shanks1):
    with pytest.raises(ZeroA):
        norm_witness(shanks1, F(0))


def test_norm_witness_bounded_search_gives_up(shanks1):
    w = norm_witness(shanks1, F(2), bound=50)
    assert w.status == "none_found"
    assert w.witness is None


# ---------------------------------------------------------------------------
# sampled algebraic laws
# ---------------------------------------------------------------------------

small = st.integers(min_value=-5, max_value=5)
coeffs = st.tuples(small, small, small)


def elem(L, c):
    return L.el([F(v) for v in c])


@settings(max_examples=100, deadline=None)
@given(coeffs, coeffs)
def test_norm_multiplicative_trace_additive(c1, c2):
    L = make_shanks_cubic(1)
    x, y = elem(L, c1), elem(L, c2)
    assert norm(L, x * y) == norm(L, x) * norm(L, y)
    assert trace(L, x + y) == trace(L, x) + trace(L, y)


@settings(max_examples=100, deadline=None)
@given(coeffs, coeffs)
def test_galois_apply_is_automorphism(c1, c2):
    L = make_shanks_cubic(1)
    x, y = elem(L, c1), elem(L, c2)
    s = lambda z: galois_apply(L, z, 1)
    assert s(x + y) == s(x) + s(y)
    assert s(x * y) == s(x) * s(y)
    assert s(L.one()) == L.one()


@settings(max_examples=100, deadline=None)
@given(coeffs)
def test_galois_apply_order_and_norm_invariance(c):
    L = make_shanks_cubic(1)
    x = elem(L, c)
    assert galois_apply(L, x, 3) == x
    assert norm(L, galois_apply(L, x, 1)) == norm(L, x)


def test_base_field_coerce_fraction_mod_p():
    k = GF(7)
    assert k.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_base_field_inverse_over_q_is_a_fraction():
    # an int input must give a Fraction, not the float 1 / a
    assert QQ.inv(3) == Fraction(1, 3)
    assert all(type(QQ.inv(a)) is Fraction for a in (3, -4, F(3), F(-2) / 5))
    R, pivots = row_reduce(QQ, [[(0, 3), (1, 1)]])
    assert pivots == [0] and R == [{0: Fraction(1), 1: Fraction(1, 3)}]
    assert all(type(x) is Fraction for x in R[0].values())


def test_base_field_prime_required():
    with pytest.raises(InputError):
        GF(6)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    from severi.fields import _is_prime
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division_is_prime(n)]


def test_is_prime_rejects_pseudoprimes_and_accepts_large_primes():
    from severi.fields import _is_prime
    # strong pseudoprimes to base 2 (2047) and to bases 2, 3, 5, 7
    # (3215031751), and the Carmichael numbers 561 and 41041
    for n in (2047, 3215031751, 561, 41041):
        assert not _is_prime(n)
    for p in (2 ** 61 - 1, 10 ** 14 + 31):
        assert _is_prime(p)
    assert GF(10 ** 14 + 31).p == 10 ** 14 + 31


def test_is_prime_refuses_beyond_its_certified_range():
    from severi.fields import _MILLER_RABIN_BOUND, _is_prime
    with pytest.raises(InputError):
        _is_prime(_MILLER_RABIN_BOUND)
    with pytest.raises(InputError):
        GF(2 ** 127 - 1)


@pytest.mark.parametrize("constant", [10 ** 14 + 31, 10 ** 19 + 51])
def test_reducible_cubic_with_large_constant_rejected_quickly(constant):
    # (x - 1)(x^2 + x + c): no mod-p certificate exists, so the rational-root
    # search decides, and it must not factor c
    import time
    f = [F(-constant), F(constant - 1), F(0), F(1)]
    t0 = time.perf_counter()
    with pytest.raises(NotIrreducible, match="rational root found"):
        poly_check_irreducible(QQ, f)
    assert time.perf_counter() - t0 < 0.1


def test_rational_roots_match_the_rational_root_theorem():
    # every squarefree integer polynomial of degree <= 3 with small
    # coefficients: the Sturm search agrees with trying u/v, u | c_0, v | c_d
    import itertools
    from severi.fields import _rational_roots_exist, poly_deriv, poly_gcd

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    def by_theorem(c):
        if c[0] == 0:
            return True
        return any(sum(ci * Fraction(s * u, v) ** i for i, ci in enumerate(c)) == 0
                   for u in divisors(c[0]) for v in divisors(c[-1]) for s in (1, -1))

    for deg in (1, 2, 3):
        for c in itertools.product(range(-3, 4), repeat=deg + 1):
            f = [Fraction(x) for x in c]
            if c[-1] == 0 or len(poly_gcd(QQ, f, poly_deriv(QQ, f))) > 1:
                continue
            assert _rational_roots_exist(f) is by_theorem(c), c


def test_irreducible_cubic_certified_mod_p_before_root_search(monkeypatch):
    # x^3 - 3x + (10^20 + 39) is x^3 + x + 1 mod 2, irreducible there; the
    # rational-root test would factor 10^20 + 39 by trial division
    import severi.fields as fields

    def no_root_search(f):
        raise AssertionError("rational-root test ran")

    monkeypatch.setattr(fields, "_rational_roots_exist", no_root_search)
    fields.poly_check_irreducible(QQ, [F(10 ** 20 + 39), F(-3), F(0), F(1)])


def test_large_constant_term_is_rejected_quickly(capsys):
    # the rational-root test once counted to |1000000007| before the
    # identity map was rejected as a Galois generator
    from severi.cli import main
    code = main(["surface", "--field", "poly:x^3 - 3*x + 1000000007;galois:x",
                 "--a", "2"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_nth_root_exact_beyond_float_range():
    from severi.fields import _nth_root_fraction
    assert _nth_root_fraction(Fraction(10 ** 399), 3) == 10 ** 133
    assert _nth_root_fraction(Fraction(10 ** 400), 3) is None


# ---------------------------------------------------------------------------
# the integer product kernel against a schoolbook reference
# ---------------------------------------------------------------------------

def _kernel_fields():
    fields = [make_shanks_cubic(t) for t in range(1, 9)]
    # theta-power table with denominator 8
    fields.append(make_extension(QQ, [F(1) / 8, F(-3) / 4, 0, 1], [-1, 0, 2]))
    fields.append(make_extension(QQ, [1, 1, 1, 1, 1], [0, 0, 1]))  # zeta5
    fields += [frobenius_extension(p, 4) for p in (5, 7)]
    return fields


KERNEL_FIELDS = _kernel_fields()


def _schoolbook_mul(x, y):
    L = x.ext
    k = L.base
    acc = [k.zero()] * L.degree
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            ab = k.mul(a, b)
            for t, r in enumerate(L._theta_pow_table[i + j]):
                acc[t] = k.add(acc[t], k.mul(ab, r))
    return tuple(acc)


def _same_scalars(got, want):
    return got == want and all(type(g) is type(w) for g, w in zip(got, want))


def _schoolbook_galois(L, x, j):
    """sigma^j(x) in base scalars, from the coordinate maps of sigma^j."""
    k = L.base
    acc = [k.zero()] * L.degree
    for a, col in zip(x.coeffs, L._galois_coord_maps[j]):
        for t, r in enumerate(col):
            acc[t] = k.add(acc[t], k.mul(a, r))
    return tuple(acc)


def _in_normal_form(z):
    """den >= 1 and gcd(den, *nums) = 1 (so zero is over 1); over F_p
    den = 1 and the nums are residues."""
    p = z.ext.base.p
    if p is not None and not (z.den == 1 and all(0 <= v < p for v in z.nums)):
        return False
    return (all(type(v) is int for v in (z.den, *z.nums)) and z.den >= 1
            and math.gcd(z.den, *z.nums) == 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_arithmetic_matches_schoolbook(L, data):
    if L.base.p is None:
        scalars = st.fractions(min_value=-40, max_value=40, max_denominator=10 ** 6)
    else:
        scalars = st.integers(min_value=-40, max_value=40)
    vec = st.lists(scalars, min_size=L.degree, max_size=L.degree)
    x, y = L.el(data.draw(vec)), L.el(data.draw(vec))
    k = L.base
    results = [x, y, x * y, x + y, x - y, -x, (x + y) - y, x - x]
    assert _same_scalars((x * y).coeffs, _schoolbook_mul(x, y))
    assert _same_scalars((x + y).coeffs,
                         tuple(k.add(a, b) for a, b in zip(x.coeffs, y.coeffs)))
    assert _same_scalars((x - y).coeffs,
                         tuple(k.sub(a, b) for a, b in zip(x.coeffs, y.coeffs)))
    assert _same_scalars((-x).coeffs, tuple(k.neg(a) for a in x.coeffs))
    for j in range(L.degree):
        img = galois_apply(L, x, j)
        assert _same_scalars(img.coeffs, _schoolbook_galois(L, x, j))
        results.append(img)
    if x:
        results.append(x.inverse())
        assert x * results[-1] == L.one()
    assert all(_in_normal_form(z) for z in results)
    # the JSON writer reads nums and den as scalar_to_json reads coeffs
    assert all(_same_scalars(element_to_json(z), [scalar_to_json(c) for c in z.coeffs])
               for z in results)
    # normal form makes field equality and hashing value equality
    for u, v in [(x, y), ((x + y) - y, x), (x - x, L.zero()), (L.el(x.coeffs), x)]:
        assert (u == v) == (u.coeffs == v.coeffs)
        assert u != v or hash(u) == hash(v)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x - x == L.zero() and hash(x - x) == hash(L.zero())


def test_arithmetic_with_base_scalars(shanks1):
    x = shanks1.el([F(1) / 3, -2, F(5) / 7])
    assert (2 * x).coeffs == (x + x).coeffs
    assert (x - 1).coeffs == (F(-2) / 3, -2, F(5) / 7)
    assert (1 - x).coeffs == (-x + 1).coeffs


def test_elements_of_equal_extensions_combine():
    L1, L2 = make_shanks_cubic(2), make_shanks_cubic(2)
    assert L1 is not L2
    assert (L1.theta() * L2.theta()).coeffs == (L1.theta() ** 2).coeffs
    with pytest.raises(InputError):
        L1.theta() + make_shanks_cubic(3).theta()


# ---------------------------------------------------------------------------
# row_reduce against sympy
# ---------------------------------------------------------------------------

def _densify(field, R, nrows, ncols):
    """The dense reduced form of row_reduce's result: its pivot rows, then
    zero rows, every zero entry `field.zero()`."""
    zero = field.zero()
    dense = [[row.get(j, zero) for j in range(ncols)] for row in R]
    return dense + [[zero] * ncols for _ in range(nrows - len(R))]


def _sympy_scalar(x, p):
    if p is None:
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % p


def _row_reduce_inputs(k, rng):
    """Square, non-square, rank-deficient and zero-row inputs, the empty
    ones, and one that needs a row swap."""
    def entry():
        if k.p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(k.p)

    def product(rows, inner, cols):
        A = [[entry() for _ in range(inner)] for _ in range(rows)]
        B = [[entry() for _ in range(cols)] for _ in range(inner)]
        return [[k.coerce(sum(a * b for a, b in zip(r, col))) for col in zip(*B)]
                for r in A]

    out = [[], [[], []]]
    for rows, cols in [(1, 1), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2), (3, 6)]:
        out.append([[entry() for _ in range(cols)] for _ in range(rows)])
        out.append(product(rows, max(1, min(rows, cols) - 1), cols))
        zero_row = [[entry() for _ in range(cols)] for _ in range(rows)]
        zero_row[rng.randrange(rows)] = [k.zero()] * cols
        out.append(zero_row)
    out.append([[k.zero()] * 3 for _ in range(3)])
    out.append([[k.zero(), k.one()], [k.coerce(2), k.coerce(3)]])  # needs a row swap
    return out


@pytest.mark.parametrize("p", [None, 7])
def test_row_reduce_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    k = QQ if p is None else GF(p)
    K = sympy.QQ if p is None else sympy.GF(p)
    rng = random.Random(5)
    for rows in _row_reduce_inputs(k, rng):
        r, c = len(rows), len(rows[0]) if rows else 0
        D = DomainMatrix([[K(int(x)) if p is not None else K(x.numerator, x.denominator)
                           for x in row] for row in rows], (r, c), K)
        R, pivots = row_reduce(k, map(enumerate, rows))
        want_R, want_pivots = D.rref()
        assert pivots == list(want_pivots)
        assert _densify(k, R, r, c) == [[_sympy_scalar(x, p) for x in row]
                                        for row in want_R.to_list()]
        if r != c:
            continue
        want_det = _sympy_scalar(D.det(), p)
        assert (len(pivots) == r) == (want_det != 0)
        eye = [[k.one() if i == j else k.zero() for j in range(r)] for i in range(r)]
        R2, pivots2 = row_reduce(k, [enumerate(row + e) for row, e in zip(rows, eye)])
        assert (pivots2[:r] == list(range(r))) == (want_det != 0)
        if want_det != 0:
            want_inv = [[_sympy_scalar(x, p) for x in row] for row in D.inv().to_list()]
            assert [row[r:] for row in _densify(k, R2, r, 2 * r)] == want_inv


# ---------------------------------------------------------------------------
# row_reduce against a dense Gauss-Jordan reference
# ---------------------------------------------------------------------------

def _dense_row_reduce(field, rows):
    """Dense Gauss-Jordan elimination, kept as the reference: the first
    unreduced row holding a column is its pivot, and every row is walked
    over all columns."""
    if isinstance(field, BaseField):
        mul, sub = field.mul, field.sub
    else:
        mul, sub = (lambda a, b: a * b), (lambda a, b: a - b)
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [mul(x, inv) if x else x for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [sub(x, mul(f, y)) if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _entry_types(R):
    """The type of each nonzero entry, and of each coordinate of an
    extension element."""
    return [[(type(x), tuple(map(type, getattr(x, "coeffs", ())))) for x in row if x]
            for row in R]


def _random_rows(field, scalar, rng, rows, cols, density):
    """rows x cols entries, each nonzero with probability `density`, with
    some rows repeated as combinations of others so the rank drops."""
    p = field.p if isinstance(field, BaseField) else None
    zero = field.zero()
    out = [[scalar() if rng.random() < density else zero for _ in range(cols)]
           for _ in range(rows)]
    for i in range(rows // 3):
        a, b = rng.randrange(rows), rng.randrange(rows)
        c = scalar()
        out[i] = [(x + c * y) % p if p else x + c * y
                  for x, y in zip(out[a], out[b])]
    return out


@pytest.mark.parametrize("name", ["Q", "F7", "shanks1", "F_7^3"])
def test_row_reduce_matches_dense_reference(name):
    rng = random.Random(11)
    if name == "Q":
        field = QQ
        scalar = lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    elif name == "F7":
        field = GF(7)
        scalar = lambda: rng.randrange(1, 7)
    else:
        field = make_shanks_cubic(1) if name == "shanks1" else frobenius_extension(7, 3)
        if field.base.p is None:
            coord = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        else:
            coord = lambda: rng.randrange(7)
        scalar = lambda: field.el([coord() for _ in range(3)]) or field.one()
    shapes = [(rows, cols, scalar) for rows, cols in
              [(1, 1), (4, 4), (6, 3), (3, 7), (12, 12), (20, 9), (9, 25)]]
    if name == "Q":
        # entries near 2^70 / 3^40, so that the integer rows over Q are big
        # and have a content to divide out
        shapes.append((8, 10, lambda: Fraction(2 ** 70 + rng.randint(-99, 99),
                                                3 ** 40 + rng.randint(0, 99))))
    for rows, cols, entry in shapes:
        for density in (0.1, 0.3, 1.0):
            A = _random_rows(field, entry, rng, rows, cols, density)
            R, pivots = row_reduce(field, map(enumerate, A))
            want_R, want_pivots = _dense_row_reduce(field, A)
            assert pivots == want_pivots
            dense = _densify(field, R, rows, cols)
            assert dense == want_R
            assert _entry_types(dense) == _entry_types(want_R)
            assert len(R) == len(pivots)
            assert all(x for row in R for x in row.values())
            if name == "Q":
                # each row times a nonzero rational spans the same rows
                scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 50),
                                   rng.randint(1, 50)) for _ in A]
                scaled = [[x * c for x in row] for row, c in zip(A, scales)]
                assert row_reduce(field, map(enumerate, scaled)) == (R, pivots)


def test_row_reduce_matches_dense_reference_on_descent_rows():
    """The n = 3 descent's rows over F_7: the theta-coordinates of the
    twisted orbit representatives over F_{7^4}, a = 3, 508 rows in 630
    columns of rank 465."""
    L, n = frobenius_extension(7, 4), 3
    basis = monomial_basis(n, n + 1)
    M = split_structured(lift_to_veronese(cyclic_cocycle(L, 3)), find_normal_basis(L))
    family = [substitute_linear(Q, M)
              for Q in orbit_representatives(basis, veronese_ideal(basis, L))]
    support = family_support(family)
    rows = _coordinate_rows(L, family, support)
    A = [[0] * len(support) for _ in rows]
    for dense, row in zip(A, rows):
        for j, x in row:
            dense[j] = x
    R, pivots = row_reduce(L.base, rows)
    want_R, want_pivots = _dense_row_reduce(L.base, A)
    assert (len(rows), len(support), len(pivots)) == (508, 630, 465)
    assert pivots == want_pivots
    assert _densify(L.base, R, len(rows), len(support)) == want_R


@pytest.mark.parametrize("name", ["Q", "F7", "shanks1"])
def test_row_reduce_input_forms_agree(name):
    """The same rows given dense through `enumerate`, as shuffled pairs with
    explicit zeros, as generators, and in reversed and shuffled row order
    reduce to the same nonzero rows, with no zero entry and no zero row:
    the order the rows are inserted in changes no entry."""
    rng = random.Random(3)
    if name == "Q":
        field = QQ
        scalar = lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    elif name == "F7":
        field = GF(7)
        scalar = lambda: rng.randrange(1, 7)
    else:
        field = make_shanks_cubic(1)
        scalar = lambda: field.el([rng.randint(-3, 3) for _ in range(3)]) or field.one()
    for rows, cols in [(5, 8), (12, 6), (9, 9)]:
        A = _random_rows(field, scalar, rng, rows, cols, 0.3)
        A[0] = [field.zero()] * cols
        shuffled = []
        for row in A:
            pairs = list(enumerate(row))
            rng.shuffle(pairs)
            shuffled.append(pairs)
        reordered = shuffled[:]
        rng.shuffle(reordered)
        forms = [map(enumerate, A), shuffled,
                 ((p for p in pairs) for pairs in shuffled),
                 map(enumerate, A[::-1]), reordered]
        want_R, want_pivots = row_reduce(field, forms[0])
        assert want_R and len(want_R) == len(want_pivots) < rows
        assert all(row and all(row.values()) for row in want_R)
        for form in forms[1:]:
            R, pivots = row_reduce(field, form)
            assert pivots == want_pivots and R == want_R
        if name == "Q":
            # A itself is all Fraction; the same rows with each integral
            # entry an int, and cleared of denominators as ints alone
            mixed = [[int(x) if x.denominator == 1 else x for x in row] for row in A]
            ints = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row]
                    for row in A]
            assert any(type(x) is int for row in mixed for x in row)
            want_types = _entry_types([list(row.values()) for row in want_R])
            assert {t for row in want_types for t, _ in row} == {Fraction}
            for B in (mixed, ints):
                R, pivots = row_reduce(field, map(enumerate, B))
                assert pivots == want_pivots and R == want_R
                assert _entry_types([list(row.values()) for row in R]) == want_types


# ---------------------------------------------------------------------------
# rank: the pivot count of row_reduce, by row insertion
# ---------------------------------------------------------------------------

RANK_FIELDS = {"Q": QQ, "F7": GF(7), "shanks1": make_shanks_cubic(1),
               "F_5^4": frobenius_extension(5, 4)}


def _rank_rows(field, rng, rows, cols, density):
    """Random rows with dependent and zero rows among them, in random
    order, as shuffled (column, entry) pairs."""
    if field is QQ:
        scalar = lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    elif isinstance(field, BaseField):
        scalar = lambda: rng.randrange(1, field.p)
    else:
        k = field.base
        coord = ((lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                 if k.p is None else (lambda: rng.randrange(k.p)))
        scalar = lambda: field.el([coord() for _ in range(field.degree)]) or field.one()
    A = _random_rows(field, scalar, rng, rows, cols, density)
    A += [[field.zero()] * cols for _ in range(rng.randrange(3))]
    rng.shuffle(A)
    out = []
    for row in A:
        pairs = list(enumerate(row))
        rng.shuffle(pairs)
        out.append(pairs)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RANK_FIELDS)), st.integers(0, 12), st.integers(1, 12),
       st.sampled_from([0.15, 0.4, 1.0]), st.integers(0, 10 ** 6))
def test_rank_is_the_pivot_count_of_row_reduce(name, rows, cols, density, seed):
    field = RANK_FIELDS[name]
    A = _rank_rows(field, random.Random(seed), rows, cols, density)
    want = len(row_reduce(field, A)[1])
    assert rank(field, A) == want
    assert rank(field, ((pair for pair in row) for row in A)) == want
    assert rank(field, A[::-1]) == want


@pytest.mark.parametrize("name", sorted(RANK_FIELDS))
def test_rank_stops_at_its_ceiling(name):
    field = RANK_FIELDS[name]
    rng = random.Random(7)
    for rows, cols in [(6, 4), (9, 9), (5, 12)]:
        A = _rank_rows(field, rng, rows, cols, 0.4)
        full = rank(field, A)
        assert full == len(row_reduce(field, A)[1]) > 0
        for ceiling in range(-1, full + 3):
            read = []

            def rows_read():
                for row in A:
                    read.append(row)
                    yield row
            assert rank(field, rows_read(), ceiling) == max(0, min(full, ceiling))
            # below the full rank another independent row follows the one
            # that reaches the ceiling, and it is not read
            if ceiling < full:
                assert len(read) < len(A)
            elif ceiling > full:
                assert len(read) == len(A)
