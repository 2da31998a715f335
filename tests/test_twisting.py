"""End-to-end constructions: Fermat family, descent, models, Picard forms."""
import functools
import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from certificate_oracle import (
    galois_poly,
    in_span,
    naive_substitute,
    parametrization_residuals,
    plane_coordinates,
    span_equal,
)
from severi import (
    QQ,
    appendix_model,
    cyclic_cocycle,
    descend_to_base,
    fermat,
    find_normal_basis,
    image_defect,
    format_poly,
    frobenius_extension,
    from_rows,
    lift_to_veronese,
    make_extension,
    make_poly,
    make_shanks_cubic,
    norm,
    omega_names,
    picard_generator,
    pullback_to_plane,
    split_structured,
    substitute_linear,
    surface_model,
    verify_theorem1_equations,
)
from severi.errors import InputError, InternalDescentFailure, ShapeMismatch, ZeroA
from severi.fields import row_reduce
from severi.polyring import (
    family_support,
    poly_to_json,
    span_reduce,
    zero_poly,
)
from severi.twisting import (
    _coordinate_rows,
    _displayed_forms,
    _displayed_relations,
    _equation7_reconstruction,
    orbit_representatives,
    proportional,
    vanishes_on_image,
)
from severi.verify import base_change_matrix
from severi.veronese import (
    ParametrizationMap,
    ideal_quadric_count,
    monomial_basis,
    veronese_ideal,
)


SHANKS = {t: make_shanks_cubic(t) for t in range(1, 9)}


def F(x):
    return Fraction(x)


def w_mono(L, m, idx, coeff=None, power=1):
    e = tuple(power if j == idx else 0 for j in range(m))
    return make_poly(L, m, {e: coeff if coeff is not None else L.one()})


# ---------------------------------------------------------------------------
# fermat family
# ---------------------------------------------------------------------------

def test_fermat_cubic(shanks1):
    C = fermat(shanks1, 1, F(2))
    assert C.genus == 1
    assert C.poly == make_poly(shanks1, 3, {(3, 0, 0): shanks1.one(),
                                            (0, 3, 0): shanks1.from_base(2),
                                            (0, 0, 3): shanks1.from_base(4)})


def test_fermat_sextic(shanks1):
    C = fermat(shanks1, 2, F(2))
    assert C.genus == 10
    assert C.poly == make_poly(shanks1, 3, {(6, 0, 0): shanks1.one(),
                                            (0, 6, 0): shanks1.from_base(4),
                                            (0, 0, 6): shanks1.from_base(16)})


def test_fermat_quartic_n3(zeta5):
    C = fermat(zeta5, 1, F(3))
    assert C.genus is None
    expected = {}
    for i in range(4):
        e = tuple(4 if j == i else 0 for j in range(4))
        expected[e] = zeta5.from_base(F(3) ** i)
    assert C.poly == make_poly(zeta5, 4, expected)


def test_fermat_invariance(shanks1):
    from severi import cyclic_cocycle
    for dp in (1, 2, 3):
        C = fermat(shanks1, dp, F(2))
        A = cyclic_cocycle(shanks1, F(2)).at_generator
        assert substitute_linear(C.poly, A) == C.poly * shanks1.from_base(F(2) ** dp)


def test_fermat_rejects_bad_input(shanks1):
    with pytest.raises(ZeroA):
        fermat(shanks1, 1, F(0))
    with pytest.raises(InputError):
        fermat(shanks1, 0, F(2))


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def test_descend_base_family_unchanged_span(shanks1):
    f1 = w_mono(shanks1, 10, 0) + w_mono(shanks1, 10, 6)
    out = descend_to_base(shanks1, [f1])
    assert span_equal(out, [f1])


def test_descend_scaled_hyperplane(shanks1, nb1):
    h = w_mono(shanks1, 10, 0) + w_mono(shanks1, 10, 6) + w_mono(shanks1, 10, 9)
    fam = [h * nb1.elements[0]]
    out = descend_to_base(shanks1, fam)
    assert span_equal(out, [h])
    for G in out:
        for _, c in G.terms:
            assert c.in_base()


def test_descend_galois_orbit_of_quadric(shanks1, model_q):
    # undo the descent on one equation, re-descend its Galois orbit
    q = model_q.equations_over_k[0]
    orbit = [galois_poly(shanks1, q, j) for j in range(3)]
    out = descend_to_base(shanks1, orbit)
    assert span_equal(out, orbit)


def test_descend_scaled_k_family_is_its_reduced_basis(shanks1):
    # L-multiples of k-quadrics span the L-span of the k-family, whose
    # reduced basis is the descent
    G = list(veronese_ideal(monomial_basis(2, 3), shanks1))
    lams = [shanks1.theta() + shanks1.from_base(F(i)) for i in range(len(G))]
    out = descend_to_base(shanks1, [Q * lam for Q, lam in zip(G, lams)])
    assert out == span_reduce(G)


def test_descend_rejects_unstable_family(shanks1):
    # sigma sends w0 + theta w1 outside the line it spans, so the
    # k-reduction returns <w0, w1>: more rows than dim_L V = 1
    f1 = w_mono(shanks1, 10, 0) + w_mono(shanks1, 10, 1, shanks1.theta())
    assert descend_to_base(shanks1, [f1]) == \
        [w_mono(shanks1, 10, 0), w_mono(shanks1, 10, 1)]


def _descend_over_L(L, family):
    """The descent as one row reduction over L, kept as the reference: the
    reduced basis of the L-span, whose coefficients lie in k exactly when
    the span is sigma-stable."""
    return span_reduce(family)


def _twisted_family(L, a):
    n = L.degree - 1
    M = split_structured(lift_to_veronese(cyclic_cocycle(L, a)),
                         find_normal_basis(L))
    return [substitute_linear(Q, M)
            for Q in veronese_ideal(monomial_basis(n, n + 1), L)]


def _fraction_descent(L, family):
    """The descent's k-reduction on theta-coordinates read from `coeffs`,
    Fraction rows as the descent built them before its rows were integer:
    each reduced row as a dict from exponents to entry."""
    support = family_support(family)
    col = {e: j for j, e in enumerate(support)}
    rows = []
    for F in family:
        parts = [[] for _ in range(L.degree)]
        for e, c in F.terms:
            for part, x in zip(parts, c.coeffs):
                part.append((col[e], x))
        rows.extend(parts)
    return [{support[j]: x for j, x in row.items()} for row in row_reduce(QQ, rows)[0]]


def _assert_descent_matches_reference(L, a):
    family = _twisted_family(L, a)
    full = descend_to_base(L, family)
    assert full == _descend_over_L(L, family)
    assert _descend_representatives(L, a) == full
    if L.base.p is None:
        assert [{e: c.base_value() for e, c in F.terms} for F in full] == \
            _fraction_descent(L, family)
        rows = _coordinate_rows(L, family, family_support(family))
        assert rows and all(type(x) is int for row in rows for _, x in row)


def _descend_representatives(L, a):
    """The descent as `surface_model` runs it: only the quadrics of
    `orbit_representatives` are twisted."""
    n = L.degree - 1
    basis = monomial_basis(n, n + 1)
    M = split_structured(lift_to_veronese(cyclic_cocycle(L, a)),
                         find_normal_basis(L))
    reps = orbit_representatives(basis, veronese_ideal(basis, L))
    return descend_to_base(L, [substitute_linear(Q, M) for Q in reps])


# each example twists and descends, so a failure is reported as drawn, unshrunk
@pytest.mark.parametrize("t", range(1, 9))
@settings(max_examples=3, deadline=None, phases=(Phase.reuse, Phase.generate))
@given(a=st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(bool))
def test_descent_matches_reference_shanks(t, a):
    _assert_descent_matches_reference(SHANKS[t], a)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 2), (5, 2), (7, 3), (53, 5)])
def test_descent_matches_reference_finite(p, a):
    _assert_descent_matches_reference(frobenius_extension(p, 3), a)


def test_descent_matches_reference_denominator_8():
    L = make_extension(QQ, [F(1) / 8, F(-3) / 4, 0, 1], [-1, 0, 2])
    _assert_descent_matches_reference(L, F(5) / 3)


def test_descent_matches_reference_conic_over_q_i():
    _assert_descent_matches_reference(make_extension(QQ, [1, 0, 1], [0, -1]), F(2))


def test_orbit_representatives_counts():
    # n = 2: 27 quadrics in 19 exponent-sum groups, 11 of them kept;
    # n = 3: 465 quadrics, 127 kept
    for n, quads, kept in ((2, 27, 11), (3, 465, 127)):
        L = frobenius_extension(5, n + 1)
        basis = monomial_basis(n, n + 1)
        all_quads = veronese_ideal(basis, L)
        reps = orbit_representatives(basis, all_quads)
        assert (len(all_quads), len(reps)) == (quads, kept)
        assert all(any(Q is R for R in all_quads) for Q in reps)


def test_descent_of_representatives_n3_f625(model_n3_f5):
    # the whole twisted ideal and one exponent-sum group per orbit descend
    # to the same reduced basis, the pinned n = 3 model over F_{5^4}
    L = model_n3_f5.extension
    full = descend_to_base(L, _twisted_family(L, 2))
    assert len(full) == 465
    assert tuple(full) == model_n3_f5.equations_over_k
    assert _descend_representatives(L, 2) == full


@pytest.mark.parametrize("field", ["shanks1", "f7"])
def test_descend_rejects_line_and_its_theta_multiple(request, field):
    # F = w0 + theta w1 and theta F have theta-coordinates spanning
    # <w0, w1> over k, of rank 2 = the family size, but span one line over L
    L = request.getfixturevalue(field)
    f = w_mono(L, 10, 0) + w_mono(L, 10, 1, L.theta())
    assert span_reduce([f, f * L.theta()]) == [f]
    assert descend_to_base(L, [f, f * L.theta()]) == \
        [w_mono(L, 10, 0), w_mono(L, 10, 1)]


def test_descend_duplicate_and_zero_members(shanks1, f7):
    for L, a in ((shanks1, F(2)), (f7, 3)):
        family = _twisted_family(L, a)
        padded = [zero_poly(L, 10), *family, family[3] * L.theta(), family[0],
                  zero_poly(L, 10)]
        assert descend_to_base(L, padded) == descend_to_base(L, family)
        assert descend_to_base(L, [zero_poly(L, 10)] * 2) == []
        unstable = w_mono(L, 10, 0) + w_mono(L, 10, 1, L.theta())
        assert len(descend_to_base(L, [unstable, zero_poly(L, 10), unstable])) == 2


def test_descend_rejects_member_over_another_extension(shanks1):
    other = make_shanks_cubic(2)
    with pytest.raises(InputError, match="given extension"):
        descend_to_base(shanks1, [w_mono(other, 10, 0)])
    with pytest.raises(InputError, match="given extension"):
        descend_to_base(shanks1, [w_mono(shanks1, 10, 0), w_mono(other, 10, 1)])


def test_descend_rejects_mixed_rings(shanks1):
    with pytest.raises(ShapeMismatch):
        descend_to_base(shanks1, [w_mono(shanks1, 10, 0), w_mono(shanks1, 3, 0)])


# ---------------------------------------------------------------------------
# surface models
# ---------------------------------------------------------------------------

def _equations_digest(model):
    text = json.dumps([poly_to_json(G) for G in model.equations_over_k])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,digest,first,last", [
    ("model_q",
     "817b4dc686cb9d9f0e277b5d1fa86a4a640abec346a351ea29fb2bcf8d080c09",
     "w0^2 - (37/4)*w3*w5 + (17/2)*w3*w7 - (13/8)*w4^2 + (13/4)*w4*w6"
     " - (23/4)*w4*w9 + (21/4)*w5*w8 + 16*w6^2 - 35*w6*w9 + (19/4)*w7*w8"
     " + 11*w9^2",
     "w2*w9 + (1/4)*w3*w4 + 5*w3*w6 - (19/2)*w3*w9 + (1/2)*w4*w8"
     " + (9/4)*w5^2 - (15/2)*w5*w7 - (3/2)*w6*w8 + (11/2)*w7^2 + 3*w8*w9"),
    ("model_f7",
     "e7487b1d87d3e1a99c0e3b299dba7c1c5a9fe143ea4b0755f594e3091ec22f68",
     "w0^2 + 5*w3*w5 + 2*w4^2 + 3*w4*w6 + 5*w4*w9 + w5*w8 + w6^2"
     " + 6*w7*w8 + w9^2",
     "w2*w9 + w3*w4 + w3*w6 + 4*w3*w9 + w4*w8 + 6*w5^2 + 4*w5*w7"
     " + 2*w6*w8 + 3*w7^2 + 5*w8*w9"),
    pytest.param(
     "model_n3_f5",
     "0c6ce56a2c1141627f7340f47a6dd7799e12bb598e4768a9e4496e4f4677d877",
     "w0^2 + 4*w18*w20 + w18*w25 + w18*w30 + 4*w18*w34 + w19*w24"
     " + 3*w19*w26 + 4*w19*w33 + 2*w20^2 + w20*w25 + 2*w20*w30"
     " + 3*w20*w34 + 2*w21*w24 + 4*w21*w26 + 3*w21*w33 + w22^2"
     " + 3*w22*w23 + 3*w22*w29 + w23*w29 + 4*w24*w28 + 4*w24*w31"
     " + 4*w25^2 + 2*w25*w27 + 4*w25*w30 + 3*w26*w28 + 3*w26*w31"
     " + 2*w27^2 + 4*w27*w30 + w27*w34 + w28*w33 + 4*w29^2"
     " + 3*w29*w32 + 4*w30^2 + w30*w34 + 4*w31*w33 + 3*w32^2 + w34^2",
     "w17*w31 + 2*w18*w20 + 3*w18*w25 + w18*w27 + w19*w24"
     " + 3*w19*w26 + w20^2 + 3*w20*w30 + 4*w20*w34 + 2*w21*w33"
     " + 2*w22*w23 + 2*w22*w29 + w23^2 + 2*w23*w29 + 4*w24*w28"
     " + w24*w31 + 3*w25^2 + 2*w25*w27 + 2*w25*w30 + 4*w25*w34"
     " + w26*w28 + w26*w31 + 3*w27^2 + 2*w27*w30 + 3*w28*w33 + w29^2"
     " + w30^2 + 2*w32^2 + 4*w34^2",
     id="model_n3_f5"),
])
def test_equations_over_k_pinned(request, name, digest, first, last):
    # shanks t=1 a=2, F_7 a=3 and the n = 3 model over F_{5^4}, a=2: the
    # JSON digest and the first and last equations pin the descended model
    # byte for byte
    model = request.getfixturevalue(name)
    eqs = model.equations_over_k
    names = omega_names(model.m)
    assert len(eqs) == ideal_quadric_count(model.n, model.n + 1)
    assert format_poly(eqs[0], names) == first
    assert format_poly(eqs[-1], names) == last
    assert _equations_digest(model) == digest


def test_n3_twist_pinned():
    # the n = 3 twist over F_{5^4}, a = 2: all 465 quadrics Q(M w), one line
    # per quadric of `i.j:c0,c1,c2,c3` terms, pinned byte for byte
    L = frobenius_extension(5, 4)
    lift = lift_to_veronese(cyclic_cocycle(L, 2))
    M = split_structured(lift, find_normal_basis(L))
    quads = veronese_ideal(monomial_basis(3, 4), L)
    text = "".join(
        " ".join(".".join(str(i) for i, k in enumerate(e) for _ in range(k))
                 + ":" + ",".join(map(str, c.coeffs)) for e, c in G.terms) + "\n"
        for G in (substitute_linear(Q, M) for Q in quads))
    assert len(quads) == 465
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3e17cc94d0d875c5cb6f3eaa67166390954200ddb84de24abd90b8dabeb21add"


def test_model_q_shape(model_q, shanks1):
    assert model_q.provenance == "main_path"
    assert model_q.n == 2
    assert model_q.m == 10
    assert len(span_reduce(list(model_q.equations_over_k))) == 27


def test_model_q_equations_over_k(model_q):
    for eq in model_q.equations_over_k:
        assert eq.is_homogeneous() and eq.degree() == 2
        for _, c in eq.terms:
            assert c.in_base()


def test_model_q_equations_vanish_on_parametrization(model_q):
    param = model_q.parametrization
    coords = plane_coordinates(param.basis, param.matrix)
    for eq in model_q.equations_over_k[:5]:
        assert naive_substitute(eq, coords).is_zero()


def test_model_q_galois_stable_span(model_q, shanks1):
    eqs = list(model_q.equations_over_k)
    for q in eqs[:5]:
        assert in_span(galois_poly(shanks1, q, 1), eqs)


def test_model_zero_a_rejected(shanks1):
    with pytest.raises(ZeroA):
        surface_model(shanks1, F(0))


def test_model_f2(model_f2):
    assert model_f2.provenance == "main_path"
    assert len(model_f2.equations_over_k) == 27


def _break_split(monkeypatch):
    """Make `split_structured` return its matrix with row 0 multiplied by
    theta, which is no longer a split: the twisted family is not Galois
    stable."""
    import severi.twisting as tw
    split = tw.split_structured

    def unsplit(lifted, nb):
        M = split(lifted, nb)
        rows = M.as_rows()
        rows[0] = [x * M.ext.theta() for x in rows[0]]
        return from_rows(M.ext, rows)

    monkeypatch.setattr(tw, "split_structured", unsplit)


@pytest.mark.parametrize("field,spec,a", [("shanks1", "shanks:t=1", 2),
                                          ("f7", "finite:p=7", 3)])
def test_unstable_twist_is_an_internal_failure(request, monkeypatch, capsys,
                                               field, spec, a):
    # the sigma-closure of the orbit representatives twisted by a matrix
    # that does not split is not the twisted ideal, and its equations do
    # not vanish on P o Ver, which the model certificate rejects: a program
    # fault
    from severi.cli import main
    _break_split(monkeypatch)
    with pytest.raises(InternalDescentFailure) as info:
        surface_model(request.getfixturevalue(field), a)
    assert str(info.value) == "model equation does not vanish on the parametrization"
    assert main(["surface", "--field", spec, "--a", str(a)]) == 1
    assert capsys.readouterr().err == (
        "verification failure: InternalDescentFailure: "
        "model equation does not vanish on the parametrization\n")


@pytest.mark.parametrize("field,a", [("shanks1", 2), ("f7", 3)])
def test_unstable_twist_of_all_quadrics_descends_to_45_rows(request, monkeypatch,
                                                            field, a):
    # the k-reduction of all 27 quadrics twisted by a matrix that does not
    # split has more rows than dim_L V = 27
    import severi.twisting as tw
    _break_split(monkeypatch)
    L = request.getfixturevalue(field)
    M = tw.split_structured(lift_to_veronese(cyclic_cocycle(L, a)),
                            find_normal_basis(L))
    quads = veronese_ideal(monomial_basis(2, 3), L)
    assert len(quads) == 27
    assert len(descend_to_base(L, [substitute_linear(Q, M) for Q in quads])) == 45


# ---------------------------------------------------------------------------
# picard generators
# ---------------------------------------------------------------------------

def test_picard_hyperplane(shanks1):
    g = picard_generator(shanks1, F(2), 1)
    assert g.degree_in_plane == 3
    h = w_mono(shanks1, 10, 0) + w_mono(shanks1, 10, 6) + w_mono(shanks1, 10, 9)
    c = proportional(g.equation, h)
    assert c is not None and not c.is_zero()
    # this normal basis has trace 1, so the form is exactly the hyperplane
    assert g.equation == h


def test_picard_dprime2_support(shanks1):
    g = picard_generator(shanks1, F(2), 2)
    assert g.degree_in_plane == 6
    assert g.equation.degree() == 2
    for e, c in g.equation.terms:
        assert c.in_base()
        assert all(e[j] == 0 for j in range(10) if j not in (0, 6, 9))


def test_picard_n3(zeta5):
    g = picard_generator(zeta5, F(5), 1)
    m = 35
    from severi import monomial_basis
    pure = monomial_basis(3, 4).pure_power_indices()
    h = w_mono(zeta5, m, pure[0])
    for idx in pure[1:]:
        h = h + w_mono(zeta5, m, idx)
    assert proportional(g.equation, h) is not None


# ---------------------------------------------------------------------------
# twisted curves
# ---------------------------------------------------------------------------

def _fermat_multiple(model, dprime):
    """The c with Picard generator o P o Ver = c * Fermat, or None: the
    twisted curve is the model cut by the generator."""
    gen = picard_generator(model.extension, model.a, dprime)
    return proportional(pullback_to_plane(model, gen.equation),
                        fermat(model.extension, dprime, model.a).poly)


def test_twisted_curve_pullback_cubic(model_q):
    c = _fermat_multiple(model_q, 1)
    assert c is not None and not c.is_zero()


def test_twisted_curve_pullback_sextic(model_q):
    c = _fermat_multiple(model_q, 2)
    assert c is not None and not c.is_zero()


def test_twisted_curve_trivial_class(shanks1):
    c = _fermat_multiple(surface_model(shanks1, F(1)), 1)
    assert c is not None and not c.is_zero()


# ---------------------------------------------------------------------------
# displayed equations
# ---------------------------------------------------------------------------

INHOMOGENEOUS = "degree-inhomogeneous as printed (3 vs 4)"


def test_displayed_equations_report(shanks1, model_q):
    rows = verify_theorem1_equations(model_q)
    assert rows == [(f"equation-{i}", "pass", None) for i in range(1, 7)] + \
        [("equation-7", "flagged", INHOMOGENEOUS)]


def _expanded_route(model):
    # reference route: expand each relation in w0..w9, then substitute the
    # parametrization into the expansions; the report and the residuals
    L = model.extension
    coords = plane_coordinates(model.parametrization.basis,
                               model.parametrization.matrix)
    forms = _displayed_forms(L, model.normal_basis)
    relations = _displayed_relations(forms, L.from_base(model.a))
    images = {}
    *residuals, recon_res = [naive_substitute(poly, coords, images) for poly in
                             [poly for _, poly in relations]
                             + [_equation7_reconstruction(forms)]]
    report = []
    for (name, poly), residual in zip(relations, residuals):
        if not poly.is_homogeneous():
            report.append((name, "flagged" if recon_res.is_zero() else "fail",
                           INHOMOGENEOUS))
        else:
            report.append((name, "pass" if residual.is_zero() else "fail", None))
    return report, residuals


def _factored_residuals(model):
    """The residuals `verify_theorem1_equations` tests: the relations as
    products of the pulled-back linear factors."""
    L = model.extension
    pulled = [pullback_to_plane(model, F)
              for F in _displayed_forms(L, model.normal_basis)]
    return [r for _, r in _displayed_relations(pulled, L.from_base(model.a))]


def _factored_and_expanded(L, a):
    model = surface_model(L, a)
    return verify_theorem1_equations(model), _expanded_route(model)[0]


def _report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# each example builds a model, so a failure is reported as drawn, unshrunk
@pytest.mark.parametrize("t", range(1, 9))
@settings(max_examples=2, deadline=None, phases=(Phase.reuse, Phase.generate))
@given(a=st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool))
def test_displayed_report_matches_expanded_route(t, a):
    factored, expanded = _factored_and_expanded(SHANKS[t], a)
    assert factored == expanded


def test_displayed_report_matches_expanded_route_denominator_8():
    L = make_extension(QQ, [F(1) / 8, F(-3) / 4, 0, 1], [-1, 0, 2])
    factored, expanded = _factored_and_expanded(L, F(5) / 3)
    assert factored == expanded
    assert [status for _, status, _ in factored] == ["pass"] * 6 + ["flagged"]


def test_displayed_report_mismatched_model(shanks1):
    # a model built at a = 3, relabelled a = 5, checked against the relations
    # at a = 5: the failing residuals must be the same polynomials on both
    # routes
    model = replace(surface_model(shanks1, F(3)), a=F(5))
    factored = verify_theorem1_equations(model)
    expanded, residuals = _expanded_route(model)
    assert factored == expanded
    assert [status for _, status, _ in factored].count("fail") == 5
    assert _factored_residuals(model) == residuals
    assert _report_digest(factored) == \
        "bdf7a588f428bf565737f1649a35c04955b35cd251898e845fc16cee5de38743"


def test_displayed_report_pinned(shanks1):
    # shanks t=1, a=2 with the default normal basis and model
    assert _report_digest(verify_theorem1_equations(surface_model(shanks1, F(2)))) == \
        "4ad7acf5554e09395b5036807c0d18e5d10e983e12f04227e8a430312beaade1"


# ---------------------------------------------------------------------------
# appendix path
# ---------------------------------------------------------------------------

def test_appendix_model_shape(appendix_q, model_q):
    assert appendix_q.provenance == "appendix_path"
    assert appendix_q.m == 10
    assert len(span_reduce(list(appendix_q.equations_over_k))) == 27
    # appendix_q is appendix_model(model_q): the given model, relabelled
    assert appendix_q == replace(model_q, provenance="appendix_path")


def test_appendix_equations_vanish(appendix_q):
    param = appendix_q.parametrization
    coords = plane_coordinates(param.basis, param.matrix)
    for eq in appendix_q.equations_over_k[:3]:
        assert naive_substitute(eq, coords).is_zero()


def test_appendix_rejects_wrong_degree():
    conic = surface_model(make_extension(QQ, [1, 0, 1], [0, -1]), F(3))
    with pytest.raises(InputError):
        appendix_model(conic)


# ---------------------------------------------------------------------------
# the model certificate
# ---------------------------------------------------------------------------

def _swap_first(make):
    return lambda eqs, L, m: (make(eqs, L, m),) + eqs[1:]


def _monomial(L, m, e):
    return make_poly(L, m, {e: L.one()})


@pytest.mark.parametrize("tamper, message", [
    (lambda eqs, L, m: eqs[:3], "3 equations, expected 27"),
    (_swap_first(lambda eqs, L, m: _monomial(L, m, (3,) + (0,) * (m - 1))),
     "every equation must be a nonzero homogeneous quadric"),
    (_swap_first(lambda eqs, L, m: eqs[0] * L.theta()),
     "model equation has non-k coefficient"),
    (_swap_first(lambda eqs, L, m: eqs[1]),
     "equations do not have distinct leading monomials"),
    (_swap_first(lambda eqs, L, m: _monomial(L, m, (2,) + (0,) * (m - 1))),
     "model equation does not vanish on the parametrization"),
])
def test_image_defect_names_the_failing_clause(model_f3, tamper, message):
    L, m = model_f3.extension, model_f3.m
    param = model_f3.parametrization
    eqs = model_f3.equations_over_k
    assert image_defect(eqs, param.basis, param.matrix) is None
    bad = tamper(eqs, L, m)
    assert image_defect(bad, param.basis, param.matrix) == message


# Q(sqrt(-t)), sigma: x -> -x
QUADRATIC = {t: make_extension(QQ, [t, 0, 1], [0, -1]) for t in (1, 2, 3)}


def _assert_vanishing_agrees(model, P, i, j, s):
    """The integer vanishing test and the symbolic oracle agree on the model
    against P, and on the model with equation i's term j moved by the
    k-scalar s, which `image_defect` then rejects by its vanishing clause."""
    L, basis = model.extension, model.parametrization.basis
    eqs = model.equations_over_k
    e = eqs[i].terms[j][0]
    bad = eqs[i] + make_poly(L, model.m, {e: L.from_base(s)})
    tampered = eqs[:i] + (bad,) + eqs[i + 1:]
    # one oracle call covers both models: residuals are per equation
    residuals = parametrization_residuals(eqs + (bad,), basis, P)
    true_zero = [r.is_zero() for r in residuals[:-1]]
    bad_zero = true_zero[:i] + [residuals[-1].is_zero()] + true_zero[i + 1:]
    assert vanishes_on_image(eqs, basis, P) is all(true_zero) is True
    assert vanishes_on_image(tampered, basis, P) is all(bad_zero) is False
    assert image_defect(tampered, basis, P) == \
        "model equation does not vanish on the parametrization"


@st.composite
def _certificate_cases(draw, n, p, against_d):
    """A model over Q (Shanks t or Q(sqrt(-t)), t <= 3) or F_p, its P or a
    base change matrix D, and a tamper: an equation, one of its non-leading
    terms and a nonzero k-scalar."""
    if p is None:
        t = draw(st.sampled_from((1, 2, 3)))
        L = SHANKS[t] if n == 2 else QUADRATIC[t]
        lam = L.el(draw(st.lists(st.integers(-3, 3), min_size=n + 1,
                                 max_size=n + 1).filter(any)))
        a = norm(L, lam)
        s = draw(st.fractions(-6, 6, max_denominator=4).filter(bool))
    else:
        L = frobenius_extension(p, n + 1)
        a = draw(st.integers(1, p - 1))
        lam = None
        s = draw(st.integers(1, p - 1))
    model = surface_model(L, a)
    P = base_change_matrix(model, lam) if against_d else model.parametrization.matrix
    i = draw(st.integers(0, len(model.equations_over_k) - 1))
    j = draw(st.integers(1, len(model.equations_over_k[i].terms) - 1))
    return model, P, i, j, s


@pytest.mark.parametrize("against_d", [False, True], ids=["P", "D"])
@pytest.mark.parametrize("p", [None, 2, 3, 7], ids=["Q", "F2", "F3", "F7"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=2, deadline=None, phases=(Phase.reuse, Phase.generate))
@given(data=st.data())
def test_vanishing_clause_matches_symbolic_oracle(n, p, against_d, data):
    # each example builds a model, so a failure is reported as drawn, unshrunk
    _assert_vanishing_agrees(*data.draw(_certificate_cases(n, p, against_d)))


def test_vanishing_clause_matches_symbolic_oracle_n3(model_n3_f5):
    _assert_vanishing_agrees(model_n3_f5, model_n3_f5.parametrization.matrix,
                             100, 1, 3)


# ---------------------------------------------------------------------------
# pullback through P o Ver
# ---------------------------------------------------------------------------

@functools.cache
def _pullback_base_model(n, p):
    if p is None:
        return surface_model(SHANKS[1] if n == 2 else QUADRATIC[1], 2)
    return surface_model(frobenius_extension(p, n + 1), 1)


def _random_parametrization(L, rng, m, kind):
    """`dense`: every entry drawn; `sparse`: entries nonzero with
    probability 0.3; `monomial`: a scaled permutation matrix."""
    def entry():
        return L.el([rng.randint(-2, 2) for _ in range(L.degree)])
    if kind == "monomial":
        perm = rng.sample(range(m), m)
        return from_rows(L, [[entry() if j == perm[i] else 0 for j in range(m)]
                             for i in range(m)])
    density = 1.0 if kind == "dense" else 0.3
    return from_rows(L, [[entry() if rng.random() < density else 0
                          for _ in range(m)] for _ in range(m)])


@pytest.mark.parametrize("p", [None, 2, 3, 7], ids=["Q", "F2", "F3", "F7"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), degree=st.integers(0, 3),
       nterms=st.integers(0, 4), kind=st.sampled_from(["dense", "sparse", "monomial"]))
def test_pullback_matches_naive_expansion(n, p, seed, degree, nterms, kind):
    # F has up to nterms terms of degree <= degree in the m coordinates
    # (none: the zero polynomial); P replaces the model's matrix
    base = _pullback_base_model(n, p)
    L, m, basis = base.extension, base.m, base.parametrization.basis
    rng = random.Random(seed)
    terms = {}
    for _ in range(nterms):
        e = [0] * m
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(m)] += 1
        terms[tuple(e)] = L.el([rng.randint(-3, 3) for _ in range(L.degree)])
    Fw = make_poly(L, m, terms)
    P = _random_parametrization(L, rng, m, kind)
    model = replace(base, parametrization=ParametrizationMap(basis, P))
    assert pullback_to_plane(model, Fw) == \
        naive_substitute(Fw, plane_coordinates(basis, P))
