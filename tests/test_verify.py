"""Verification harness: genus, point counts, smoothness, suite runner."""
import json
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from severi import (
    Check,
    Report,
    VerifyConfig,
    count_points,
    genus_plane,
    jacobian_rank_at,
    rational_points,
    report_to_json,
    run_all,
    smoothness_spot,
)
from severi import verify
from severi.errors import InputError, TooLarge
from severi.polyring import make_poly
from severi.verify import (
    EXHAUSTIVE_MAX_P,
    base_change_matrix,
    report_from_json,
    solve_points_exhaustive,
    solve_points_image,
)


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


def test_exhaustive_cap(model_f7):
    assert EXHAUSTIVE_MAX_P == 3
    with pytest.raises(TooLarge):
        solve_points_exhaustive(model_f7, 7)


def test_exhaustive_guard_raises_before_enumerating(model_f2, monkeypatch):
    # P^34(F_2) has 2^35 tuples: the guard must raise before any is listed,
    # so a missing guard fails here instead of allocating them
    def product(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verify, "itertools", SimpleNamespace(product=product))
    cap = verify.EXHAUSTIVE_MAX_TUPLES
    with pytest.raises(TooLarge, match=rf"2\^35 tuples, over the cap of {cap}$"):
        solve_points_exhaustive(replace(model_f2, m=35), 2)


def test_methods_agree_p2(model_f2):
    pts_ex = solve_points_exhaustive(model_f2, 2)
    pts_im = solve_points_image(model_f2, 2)
    assert sorted(pts_ex) == sorted(pts_im)
    assert len(pts_ex) == 7


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
    rep = smoothness_spot(model_f2, 2)
    assert rep.ok
    assert len(rep.checks) == 7
    assert all("rank" in (c.witness or "") or c.status == "pass"
               for c in rep.checks)


def test_smoothness_p3(model_f3):
    rep = smoothness_spot(model_f3, 3)
    assert rep.ok
    assert len(rep.checks) == 13


def test_smoothness_sample_limit(model_f3):
    rep = smoothness_spot(model_f3, 3, sample=4)
    assert len(rep.checks) == 4


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


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def test_run_all_subset():
    rep = run_all(VerifyConfig(suites=("cocycle", "picard")))
    assert rep.ok
    assert rep.suite == "cocycle+picard"
    names = [c.name for c in rep.checks]
    assert "cocycle:companion-twisted-power-is-aI" in names
    assert all(n.split(":")[0] in ("cocycle", "picard") for n in names)


def test_run_all_trivial_class_transport():
    rep = run_all(VerifyConfig(a="1", suites=("triviality",)))
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "triviality:witness-transports-model-to-veronese" in names


def test_run_all_nontrivial_class_documented():
    rep = run_all(VerifyConfig(a="2", suites=("triviality",), witness_bound=50))
    assert rep.ok
    flagged = {c.name: c for c in rep.checks}
    note = flagged["triviality:nontrivial-class"].witness
    assert "not a proof" in note


def test_run_all_minus1_without_witness_fails_in_odd_degree():
    # N(-1) = -1 in degree 3, so a search that finds no witness is a failure
    rep = run_all(VerifyConfig(suites=("triviality",), witness_bound=1))
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["triviality:norm-minus1-coboundary"] == "fail"


def test_run_all_paper_eqs_flag():
    rep = run_all(VerifyConfig(suites=("paper-eqs",)))
    assert rep.ok
    statuses = [c.status for c in rep.checks]
    assert statuses.count("pass") == 6
    assert statuses.count("flagged") == 1


def test_run_all_rejects_unknown_suite():
    with pytest.raises(InputError):
        run_all(VerifyConfig(suites=("cocycle", "nope")))


def test_run_all_rejects_bad_field_spec():
    with pytest.raises(InputError):
        run_all(VerifyConfig(field_spec="shanks:q=1", suites=("cocycle",)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_ok_semantics():
    rep = Report("s", (Check("a", "pass"), Check("b", "flagged", "note")), 1)
    assert rep.ok
    rep2 = Report("s", (Check("a", "fail", "boom"),), 1)
    assert not rep2.ok


def test_report_json_round_trip():
    rep = Report("demo", (Check("a", "pass"), Check("b", "flagged", "why")), 12)
    blob = json.loads(json.dumps(report_to_json(rep)))
    assert blob["schema"] == 1
    back = report_from_json(blob)
    assert back == rep
