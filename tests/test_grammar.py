"""Text grammar: polynomials, elements, field specs, canonical formatting."""
from fractions import Fraction

import pytest

from severi import (
    GF,
    QQ,
    format_poly,
    omega_names,
    parse_element,
    parse_field_spec,
    parse_poly,
    parse_univariate,
    plane_names,
)
from severi.errors import GrammarError, NotGalois
from severi.fields import format_element, format_scalar, format_univariate
from severi.polyring import make_poly, monomial


def F(x):
    return Fraction(x)


def test_parse_univariate_shanks():
    assert parse_univariate(QQ, "x^3 - x^2 - 4*x - 1") == (F(-1), F(-4), F(-1), F(1))


def test_parse_univariate_rational_coeffs():
    assert parse_univariate(QQ, "1/2 + x") == (Fraction(1, 2), F(1))


def test_parse_univariate_mod_p():
    assert parse_univariate(GF(2), "x^3 + x + 1") == (1, 1, 0, 1)


def test_parse_element(shanks1):
    e = parse_element(shanks1, "(1/2) + 3*t - t^2")
    assert e.coeffs == (Fraction(1, 2), F(3), F(-1))


def test_parse_poly_plane_names(shanks1):
    Fp = parse_poly(shanks1, "X^3 + 2*Y^3 + 4*Z^3", plane_names(2))
    assert Fp == make_poly(shanks1, 3, {(3, 0, 0): shanks1.one(),
                                        (0, 3, 0): shanks1.from_base(2),
                                        (0, 0, 3): shanks1.from_base(4)})


def test_parse_poly_omega_names(shanks1):
    Fp = parse_poly(shanks1, "w0 + w6 + w9", omega_names(10))
    one = shanks1.one()
    assert Fp == make_poly(shanks1, 10, {
        tuple(1 if j == i else 0 for j in range(10)): one for i in (0, 6, 9)})


def test_parse_poly_extension_coefficient(shanks1):
    Fp = parse_poly(shanks1, "(1 + t)*X*Y", plane_names(2))
    assert Fp == monomial(shanks1, (1, 1, 0), shanks1.one() + shanks1.theta())


def test_format_parse_round_trip(shanks1):
    Fp = make_poly(shanks1, 3, {(2, 1, 0): shanks1.from_base(Fraction(-3, 2)),
                                (0, 0, 3): shanks1.theta()})
    text = format_poly(Fp, plane_names(2))
    assert parse_poly(shanks1, text, plane_names(2)) == Fp


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


def test_parse_errors(shanks1):
    with pytest.raises(GrammarError):
        parse_poly(shanks1, "X +* Y", plane_names(2))
    with pytest.raises(GrammarError):
        parse_poly(shanks1, "Q", plane_names(2))
    with pytest.raises(GrammarError):
        parse_univariate(QQ, "x^")


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
