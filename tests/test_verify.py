"""Verification harness: genus, point counts, smoothness, suite runner."""
import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from point_oracle import jacobian_ranks, solve_points_exhaustive
from severi import (
    QQ,
    Check,
    Report,
    count_points,
    cyclic_cocycle,
    find_normal_basis,
    from_rows,
    frobenius_extension,
    genus_plane,
    inverse,
    lift_to_veronese,
    make_extension,
    make_shanks_cubic,
    mul,
    rational_points,
    report_to_json,
    run_all,
    smoothness_spot,
    split_generic,
    split_structured,
    surface_model,
)
from severi import verify
from severi.cohomology import k_rank
from severi.cli import main
from severi.errors import InputError
from severi.polyring import make_poly
from severi.twisting import image_defect
from severi.verify import base_change_matrix


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

def test_genus_values():
    assert genus_plane(3) == 1
    assert genus_plane(6) == 10
    assert genus_plane(4) == 3


def test_genus_identity_for_multiples_of_three():
    for dp in range(1, 11):
        assert genus_plane(3 * dp) == (3 * dp - 1) * (3 * dp - 2) // 2


def test_genus_rejects_nonpositive():
    with pytest.raises(InputError):
        genus_plane(0)


# ---------------------------------------------------------------------------
# point counts
# ---------------------------------------------------------------------------

def test_count_p2(model_f2):
    assert count_points(model_f2, 2) == 7


def test_count_p3(model_f3):
    assert count_points(model_f3, 3) == 13


def test_count_p7_image(model_f7):
    assert count_points(model_f7, 7) == 57


def test_methods_agree_p2(model_f2):
    pts_ex = solve_points_exhaustive(model_f2, 2)
    pts_im = rational_points(model_f2, 2)
    assert pts_ex == pts_im
    assert len(pts_ex) == 7


@pytest.mark.parametrize("n, primes", [(2, (2, 3)), (1, (2, 3, 5, 7, 11, 13))])
def test_route_matches_oracle(n, primes):
    # the image route and exhaustive enumeration list the same points, for
    # every unit a
    for p in primes:
        L = frobenius_extension(p, n + 1)
        for a in range(1, p):
            model = surface_model(L, a)
            assert rational_points(model, p) == solve_points_exhaustive(model, p)


def _tampered(model):
    """The model cut to 3 of its equations, then with its first equation
    swapped for w0^2 (independent of the rest but not vanishing), for a
    copy of the second (dependent), and for theta times itself (not over
    k).  Each breaks one condition of the certificate."""
    L = model.extension
    square = make_poly(L, model.m, {(2,) + (0,) * (model.m - 1): L.one()})
    eqs = model.equations_over_k
    return (replace(model, equations_over_k=eqs[:3]),
            *(replace(model, equations_over_k=(first,) + eqs[1:])
              for first in (square, eqs[1], eqs[0] * L.theta())))


@pytest.mark.parametrize("name", ["model_f2", "model_f3", "model_f7"])
def test_base_change_matrix_passes_the_certificate(name, request):
    # the check `rational_points` no longer runs: D o Ver has the image of
    # P o Ver, so the equations cut out the image of D o Ver as well
    model = request.getfixturevalue(name)
    assert image_defect(model.equations_over_k, model.parametrization.basis,
                        base_change_matrix(model)) is None


@pytest.mark.parametrize("name", ["model_f3", "model_f7"])
def test_tampered_models_raise(name, request):
    # `surface_model` rejects each by `image_defect` against P, and the
    # certificate against D agrees
    model = request.getfixturevalue(name)
    basis = model.parametrization.basis
    D = base_change_matrix(model)
    for bad in _tampered(model):
        assert image_defect(bad.equations_over_k, basis,
                            model.parametrization.matrix) is not None
        assert image_defect(bad.equations_over_k, basis, D) is not None


def test_oracle_sees_the_cut_model(model_f3):
    # 3 of the 27 quadrics cut out far more than the 13 points of P^2(F_3)
    cut = _tampered(model_f3)[0]
    assert len(solve_points_exhaustive(cut, 3)) == 1363


def test_points_are_sorted_tuples(model_f3):
    pts = rational_points(model_f3, 3)
    assert pts == sorted(pts)
    assert all(len(pt) == 10 for pt in pts)


def test_count_requires_matching_prime(model_f2):
    with pytest.raises(InputError):
        count_points(model_f2, 3)


def test_base_change_matrix_is_rational(model_f7, f7):
    D = base_change_matrix(model_f7)
    assert D.rows == 10
    for row in D.as_rows():
        for e in row:
            assert e.in_base()


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def test_smoothness_p2(model_f2):
    rep = smoothness_spot(model_f2, 2, rational_points(model_f2, 2))
    assert rep.ok
    assert len(rep.checks) == 7
    assert all("rank" in (c.witness or "") or c.status == "pass"
               for c in rep.checks)


def test_smoothness_p3(model_f3):
    rep = smoothness_spot(model_f3, 3, rational_points(model_f3, 3))
    assert rep.ok
    assert len(rep.checks) == 13


def test_smoothness_fails_on_the_cut_model(model_f3):
    # 3 of the 27 quadrics have Jacobian rank at most 3 < 7 at every point;
    # one swapped equation would not show, as the other 26 still give rank 7
    pts = rational_points(model_f3, 3)
    cut = _tampered(model_f3)[0]
    rep = smoothness_spot(cut, 3, pts)
    assert [c.status for c in rep.checks] == ["fail"] * len(pts)
    # a point below the ceiling m - 1 - n reports its full rank
    quadrics = verify._quadric_terms(cut.equations_over_k, 3)
    assert [c.witness for c in rep.checks] == [
        f"rank {verify._jacobian_rank(quadrics, pt, 3)}, expected 7" for pt in pts]


def jacobian_rank_at(equations, point, p):
    return verify._jacobian_rank(verify._quadric_terms(equations, p), point, p)


def test_jacobian_rank_detects_singularity(f2):
    # w0 w1 = 0 is singular where both factors vanish
    q = make_poly(f2, 4, {(1, 1, 0, 0): f2.one()})
    pt = (0, 0, 1, 0)
    assert jacobian_rank_at([q], pt, 2) == 0
    smooth_pt = (1, 0, 0, 0)
    assert jacobian_rank_at([q], smooth_pt, 2) == 1


def test_jacobian_rank_reads_rational_coefficients_mod_p(shanks1):
    # (1/2) w0 w1 at (0, 1): the w0-partial is 1/2 = 2 mod 3, not int(1/2) = 0
    q = make_poly(shanks1, 2, {(1, 1): shanks1.from_base(Fraction(1, 2))})
    assert jacobian_rank_at([q], (0, 1), 3) == 1


def test_jacobian_rank_doubles_a_square(f3):
    # w1^2 + w0 w1 at (1, 1) over F_3: the w1-partial 2 w1 + w0 is 0, and
    # the w0-partial goes with the first coordinate; 2 w1 read as w1 gives 2
    q = make_poly(f3, 2, {(0, 2): f3.one(), (1, 1): f3.one()})
    assert jacobian_rank_at([q], (1, 1), 3) == 0
    assert jacobian_ranks([q], [(1, 1)], 3) == [0]


def test_jacobian_rank_rejects_a_cubic(f2):
    cubic = make_poly(f2, 3, {(2, 1, 0): f2.one(), (0, 0, 2): f2.one()})
    with pytest.raises(InputError, match="degree 3"):
        jacobian_rank_at([cubic], (1, 0, 0), 2)


def test_jacobian_rank_rejects_the_zero_point(f2):
    q = make_poly(f2, 3, {(1, 1, 0): f2.one()})
    with pytest.raises(InputError, match="zero point"):
        jacobian_rank_at([q], (0, 0, 0), 2)


@pytest.fixture(scope="module")
def model_n3_f16():
    return surface_model(frobenius_extension(2, 4), 1)


@pytest.mark.parametrize("name", ["model_f2", "model_f3", "model_n3_f16"])
def test_termwise_rank_matches_the_polynomial_jacobian(name, request):
    model = request.getfixturevalue(name)
    p = model.extension.base.p
    pts = rational_points(model, p)
    quadrics = verify._quadric_terms(model.equations_over_k, p)
    ranks = [verify._jacobian_rank(quadrics, pt, p) for pt in pts]
    assert ranks == jacobian_ranks(model.equations_over_k, pts, p)
    target = model.m - 1 - model.n
    assert ranks == [target] * len(pts)
    # the rank smoothness_spot takes, which stops at the target
    assert [verify._jacobian_rank(quadrics, pt, p, target) for pt in pts] == ranks


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def test_run_all_subset():
    rep = run_all(make_shanks_cubic(1), 2, ("cocycle", "picard"))
    assert rep.ok
    assert rep.suite == "cocycle+picard"
    names = [c.name for c in rep.checks]
    assert "cocycle:companion-twisted-power-is-aI" in names
    assert all(n.split(":")[0] in ("cocycle", "picard") for n in names)


def test_run_all_trivial_class_transport():
    rep = run_all(make_shanks_cubic(1), 1, ("triviality",))
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "triviality:witness-transports-model-to-veronese" in names


def test_run_all_nontrivial_class_documented(monkeypatch):
    monkeypatch.setattr(verify, "WITNESS_BOUND", 50)
    rep = run_all(make_shanks_cubic(1), 2, ("triviality",))
    assert rep.ok
    flagged = {c.name: c for c in rep.checks}
    note = flagged["triviality:nontrivial-class"].witness
    assert "not a proof" in note


def test_run_all_minus1_without_witness_fails_in_odd_degree(monkeypatch):
    # N(-1) = -1 in degree 3, so a search that finds no witness is a failure
    monkeypatch.setattr(verify, "WITNESS_BOUND", 1)
    rep = run_all(make_shanks_cubic(1), 2, ("triviality",))
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["triviality:norm-minus1-coboundary"] == "fail"


def test_run_all_paper_eqs_flag():
    rep = run_all(make_shanks_cubic(1), 2, ("paper-eqs",))
    assert rep.ok
    statuses = [c.status for c in rep.checks]
    assert statuses.count("pass") == 6
    assert statuses.count("flagged") == 1


def test_run_all_builds_each_model_once(monkeypatch):
    # paper-eqs and picard share the model over Q, counts and appendix
    # those over F_2 and F_7: 4 distinct models, 7 builds without the
    # per-run cache; the report digest was recorded before the cache
    calls = []
    build = verify.surface_model

    def counted(L, a):
        calls.append((L, a))
        return build(L, a)

    monkeypatch.setattr(verify, "surface_model", counted)
    rep = report_to_json(run_all(make_shanks_cubic(1), 2))
    assert len(calls) == len(set(calls)) == 4
    del rep["elapsed_ms"]
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() \
        == "96b6c304f5c0c61bcdfa2ad6c5d74589163fbeaed91649bd8088788ee4ab171a"


SPLIT_DIFFERENCE_FIELDS = {
    "shanks1": lambda: make_shanks_cubic(1),
    "shanks2": lambda: make_shanks_cubic(2),
    "f27": lambda: frobenius_extension(3, 3),
    "f625": lambda: frobenius_extension(5, 4),
    "zeta5": lambda: make_extension(QQ, [1, 1, 1, 1, 1], [0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(SPLIT_DIFFERENCE_FIELDS))
def test_split_difference_in_k_either_way(name):
    # every generic split Mg has its columns in the k-span of the structured
    # split Ms: together they have k-rank m, which is why the `split` suite
    # reports `differs-by-fixed-matrix` from the splits' own certificates;
    # a column scaled by theta leaves the k-form and raises the k-rank.
    # For n = 2, inverse(Ms) * Mg is in k exactly when inverse(Mg) * Ms is,
    # and exactly when that k-rank is m
    L = SPLIT_DIFFERENCE_FIELDS[name]()
    lift = lift_to_veronese(cyclic_cocycle(L, 2))
    Ms = split_structured(lift, find_normal_basis(L))
    m = Ms.rows
    assert k_rank(Ms) == m

    def in_k(M):
        return all(e.in_base() for row in M.sparse_rows for _, e in row)

    for seed in range(5):
        Mg = split_generic(lift, rng_seed=seed)
        assert k_rank(Ms, Mg) == m
        bent = from_rows(L, [[e * L.theta() if j == 0 else e
                              for j, e in enumerate(row)] for row in Mg.as_rows()])
        assert k_rank(Ms, bent) == m + 1
        if L.degree == 3:
            for G, fixed in ((Mg, True), (bent, False)):
                assert in_k(mul(inverse(G), Ms)) is in_k(mul(inverse(Ms), G)) is fixed


def test_run_all_rejects_unknown_suite():
    with pytest.raises(InputError):
        run_all(make_shanks_cubic(1), 2, ("cocycle", "nope"))


def test_verify_rejects_bad_field_spec(capsys):
    assert main(["verify", "--field", "shanks:q=1", "--suite", "cocycle"]) == 2
    assert "input error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_ok_semantics():
    rep = Report("s", (Check("a", "pass"), Check("b", "flagged", "note")))
    assert rep.ok
    rep2 = Report("s", (Check("a", "fail", "boom"),))
    assert not rep2.ok
