"""Text grammar: univariate input, field specs, canonical formatting."""
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi import (
    GF,
    QQ,
    format_poly,
    omega_names,
    parse_field_spec,
    parse_univariate,
    plane_names,
)
from severi.errors import GrammarError, NotGalois
from severi.fields import (format_element, format_scalar, format_univariate,
                           poly_add, poly_mul, poly_sub, poly_trim)
from severi.polyring import make_poly


def F(x):
    return Fraction(x)


def test_parse_univariate_shanks():
    assert parse_univariate(QQ, "x^3 - x^2 - 4*x - 1", 3) == (F(-1), F(-4), F(-1), F(1))


def test_parse_univariate_rational_coeffs():
    assert parse_univariate(QQ, "1/2 + x", 1) == (Fraction(1, 2), F(1))


def test_parse_univariate_mod_p():
    assert parse_univariate(GF(2), "x^3 + x + 1", 3) == (1, 1, 0, 1)


def test_format_poly_text(shanks1):
    Fp = make_poly(shanks1, 3, {(2, 1, 0): shanks1.from_base(Fraction(-3, 2)),
                                (1, 1, 1): shanks1.one(),
                                (0, 0, 3): shanks1.one() + shanks1.theta()})
    assert format_poly(Fp, plane_names(2)) == "-(3/2)*X^2*Y + X*Y*Z + (1 + t)*Z^3"


def test_format_univariate_shanks(shanks1):
    assert format_univariate(shanks1.f) == "x^3 - x^2 - 4*x - 1"
    assert format_univariate(shanks1.g) == "x^2 - 2*x - 2"


def test_format_scalar_and_element(shanks1):
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_element(shanks1.one() + shanks1.theta()) == "1 + t"


def test_plane_and_omega_names():
    assert plane_names(2) == ("X", "Y", "Z")
    assert plane_names(3) == ("X0", "X1", "X2", "X3")
    assert omega_names(3) == ("w0", "w1", "w2")


def test_parse_errors():
    for text in ("x +* x", "y", "x^"):
        with pytest.raises(GrammarError):
            parse_univariate(QQ, text, 3)


@pytest.mark.parametrize("k", [QQ, GF(2), GF(7)], ids=repr)
def test_parse_univariate_rejects_malformed(k):
    for text in ("x^", "t", "1/0", "(x", "x x", "(" * 1000 + "x" + ")" * 1000):
        with pytest.raises(GrammarError):
            parse_univariate(k, text, 3)


@pytest.mark.parametrize("text", [
    "x^4",                   # an exponent above the bound
    "2^4",                   # also on a constant
    "x^99999999999",
    "(x + 1)^100000",
    "x^2*x^2",               # a product above the bound
    "x*x*x*x - x^3*x",
    "(x^2 + 1)^2",           # a power above the bound
    "(x*x)^2 - x^4",
    "1" * 5000,              # more digits than int() reads
])
def test_parse_univariate_rejects_degree_above_bound(text):
    t0 = time.perf_counter()
    with pytest.raises(GrammarError):
        parse_univariate(QQ, text, 3)
    assert time.perf_counter() - t0 < 1.0


def test_parse_univariate_bound_is_inclusive():
    assert parse_univariate(QQ, "x^3 - x^2*x + (x + 1)^3", 3) == \
        (F(1), F(3), F(3), F(1))
    assert parse_univariate(GF(7), "2^3*x - 0^3 + 0*x^3", 3) == (0, 1)


# ---------------------------------------------------------------------------
# parse_univariate against the dense polynomial arithmetic of severi.fields
# ---------------------------------------------------------------------------

_ATOM, _POWER, _PRODUCT, _SUM = 3, 2, 1, 0  # binding strength of rendered text

_trees = st.recursive(
    st.one_of(st.just(("x",)),
              st.tuples(st.just("num"), st.integers(0, 12), st.sampled_from((1, 3, 5)))),
    lambda sub: st.one_of(st.tuples(st.sampled_from("+-*"), sub, sub),
                          st.tuples(st.just("neg"), sub),
                          st.tuples(st.just("^"), sub, st.integers(0, 3))),
    max_leaves=8)


def _render(k, tree):
    """(text, strength, coefficients) of an expression tree over k, with
    parentheses only where the grammar needs them; the coefficients come
    from poly_add / poly_sub / poly_mul alone."""
    op = tree[0]
    if op == "x":
        return "x", _ATOM, (k.zero(), k.one())
    if op == "num":
        _, num, den = tree
        text = str(num) if den == 1 else f"{num}/{den}"
        return text, _ATOM, poly_trim(k, [k.coerce(Fraction(num, den))])
    if op == "^":
        text, strength, value = _render(k, tree[1])
        if strength < _ATOM:
            text = f"({text})"
        out = (k.one(),)
        for _ in range(tree[2]):
            out = poly_mul(k, out, value)
        return f"{text}^{tree[2]}", _POWER, out
    if op == "neg":
        text, strength, value = _render(k, tree[1])
        if strength == _SUM:  # a leading sign binds to the first term only
            text = f"({text})"
        return f"-{text}", _SUM, poly_sub(k, (), value)
    (lt, ls, lv), (rt, rs, rv) = _render(k, tree[1]), _render(k, tree[2])
    if op == "*":
        lt = lt if ls >= _PRODUCT else f"({lt})"
        rt = rt if rs >= _PRODUCT else f"({rt})"
        return f"{lt}*{rt}", _PRODUCT, poly_mul(k, lv, rv)
    if op == "-" and rs == _SUM:
        rt = f"({rt})"
    combine = poly_add if op == "+" else poly_sub
    return f"{lt} {op} {rt}", _SUM, combine(k, lv, rv)


def _degree_bound(tree) -> int:
    """A degree bound that no part of the tree's text goes above: the
    largest syntactic degree of any subtree (an inner power may be of
    higher degree than the whole, as in ((x^2)^2)^0), and at least the
    largest exponent (3)."""
    def degree(tree) -> tuple[int, int]:  # (of the tree, largest of a subtree)
        op = tree[0]
        if op == "x":
            return 1, 1
        if op == "num":
            return 0, 0
        d, top = degree(tree[1])
        if op == "^":
            return d * tree[2], max(top, d * tree[2])
        if op == "neg":
            return d, top
        d2, top2 = degree(tree[2])
        d = d + d2 if op == "*" else max(d, d2)
        return d, max(top, top2, d)
    return max(3, degree(tree)[1])


@pytest.mark.parametrize("k", [QQ, GF(2), GF(7)], ids=repr)
@settings(max_examples=60, deadline=None)
@given(tree=_trees)
def test_parse_univariate_matches_poly_arithmetic(k, tree):
    text, _, want = _render(k, tree)
    assert parse_univariate(k, text, _degree_bound(tree)) == want


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

def test_field_spec_shanks():
    L = parse_field_spec("shanks:t=1")
    assert L.f == (F(-1), F(-4), F(-1), F(1))


def test_field_spec_finite():
    from severi.fields import galois_apply, poly_powmod
    L = parse_field_spec("finite:p=7", degree=3)
    assert L.base.p == 7
    assert L.degree == 3
    # generator is x^p reduced mod f (Frobenius)
    assert L.g == poly_powmod(L.base, (0, 1), 7, L.f)
    assert galois_apply(L, L.theta(), 3) == L.theta()


def test_field_spec_poly():
    L = parse_field_spec("poly:x^3 - x^2 - 4*x - 1;galois:x^2 - 2*x - 2")
    assert L.f == (F(-1), F(-4), F(-1), F(1))
    Lq = parse_field_spec('poly:"x^3 - 3*x - 1";galois:"x^2 - x - 2"')
    assert Lq.f == (F(-1), F(-3), F(0), F(1))


def test_field_spec_poly_bad_galois_rejected():
    with pytest.raises(NotGalois):
        parse_field_spec("poly:x^3 - 3*x - 1;galois:x^2 - 2")


def test_field_spec_character_convention():
    L1 = parse_field_spec("shanks:t=1", character_convention=1)
    assert L1.character_convention == 1
    L2 = parse_field_spec("shanks:t=1")
    assert L2.character_convention == 2
    Lf = parse_field_spec("finite:p=2", character_convention=1)
    assert Lf.character_convention == 1


def test_field_spec_degree_must_match():
    zeta5 = "poly:x^4 + x^3 + x^2 + x + 1;galois:x^2"
    assert parse_field_spec(zeta5, degree=4).degree == 4
    for spec, degree in (("shanks:t=1", 4), ("shanks:t=1", 2), (zeta5, 3)):
        with pytest.raises(GrammarError):
            parse_field_spec(spec, degree=degree)


def test_field_spec_errors():
    with pytest.raises(GrammarError):
        parse_field_spec("unknown:t=1")
    with pytest.raises(GrammarError):
        parse_field_spec("shanks")
    with pytest.raises(GrammarError):
        parse_field_spec("shanks:t=abc")
    with pytest.raises(GrammarError):
        parse_field_spec("poly:x^3 - 3*x - 1")
