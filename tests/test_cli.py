"""CLI surface: emissions, exit codes, determinism, env seed override."""
import errno
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from severi import (algebra, cohomology, fermat, find_normal_basis,
                    frobenius_extension, make_shanks_cubic, picard_generator,
                    pullback_to_plane, surface_model, twisting, verify)
from severi import cli
from severi.algebra import build_algebra, table_to_json
from severi.cli import main
from severi.errors import InputError
from severi.fields import extension_to_json
from severi.polyring import poly_to_json
from severi.twisting import (PICARD_MAX_DPRIME, model_to_json, picard_to_json,
                             proportional)
from severi.verify import report_to_json, run_all


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surface_text(capsys):
    code, out, _ = run(capsys, "surface", "--field", "shanks:t=1", "--a", "2")
    assert code == 0
    assert "surface model (main_path)" in out
    assert "field: x^3 - x^2 - 4*x - 1 over QQ" in out
    assert "equations (27):" in out
    assert "w" in out and "= 0" in out


def test_surface_check_finite(capsys):
    code, out, _ = run(capsys, "surface", "--field", "finite:p=7",
                       "--a", "3", "--check")
    assert code == 0
    assert "PASS count-p7  [57]" in out


def test_surface_check_exhaustive(capsys):
    code, out, _ = run(capsys, "surface", "--field", "finite:p=2",
                       "--a", "1", "--check")
    assert code == 0
    assert "PASS count-p2  [7]" in out
    assert "PASS smooth-p2" in out


def test_surface_check_conic_targets_follow_n(capsys):
    # a conic over F_3 is smooth with |P^1(F_3)| = 4 points, Jacobian rank 1
    code, out, _ = run(capsys, "surface", "--field", "finite:p=3", "--n", "1",
                       "--a", "2", "--check")
    assert code == 0
    assert "PASS count-p3  [4]" in out
    assert "PASS smooth-p3" in out


def test_surface_check_conic_over_q(capsys):
    # n = 1 over Q(i): dimension-generic checks, not the n = 2 paper equations
    code, out, _ = run(capsys, "surface", "--field", "poly:x^2 + 1;galois:-x",
                       "--n", "1", "--a", "2", "--check")
    assert code == 0
    assert "PASS equation-count  [1]" in out
    assert "PASS equations-vanish" in out
    assert "2 checks: 2 pass, 0 flagged, 0 fail" in out


@pytest.mark.parametrize("argv,digest", [
    # theta-power table of this field has denominator 8; digest of the
    # emission recorded before the integer product kernel
    (("--field", "poly:x^3 - 3/4*x + 1/8;galois:2*x^2 - 1", "--a", "5/3",
      "--check", "--emit", "json"),
     "27fec3e1773d9adb47a153d0e2f9e345a81eb3667a8397e492382527d03b4867"),
    # pin what model_to_json writes of a, the normal basis and the
    # splitting matrix
    (("--field", "finite:p=7", "--a", "3", "--emit", "json"),
     "a5aff49f17c935bd249d71f5d8355590cad29fc39bfa792f1f961d91891b5382"),
    (("--field", "shanks:t=1", "--a", "2", "--emit", "json"),
     "64bd6f336b568d3dc586977327dfb802c662e5d4c8fd2d48c74fe2127710bc28"),
    # the same splitting matrices, and one at n = 3, in the text emitter's
    # dense rows: a zero is written as in every other entry, rows in order
    (("--field", "finite:p=7", "--a", "3", "--matrix"),
     "221563f26c22a3e94a71e4f17041422a1eda76dd3af2190fc73d4ad311417215"),
    (("--field", "shanks:t=1", "--a", "2", "--matrix"),
     "ffcef751c10e3b16014300c03f9d53220d3280b11b444ff565f8a84e1c9ea268"),
    (("--field", "finite:p=5", "--n", "3", "--a", "2", "--matrix"),
     "9558f3b4d1ae78fcb297f9af364e89efb928b71a28ca154a9a66bc33670dff2b"),
], ids=["denominator-8", "f7-a3", "shanks1-a2", "f7-a3-matrix",
        "shanks1-a2-matrix", "f5-n3-a2-matrix"])
def test_surface_json_digest(capsys, argv, digest):
    code, out, _ = run(capsys, "surface", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, severi, severi.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_point_counts_do_not_load_numpy(tmp_path):
    # counting and the smoothness spot check at p = 3 use no third-party
    # package
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "\n".join([
        "import sys",
        "from severi.cli import main",
        "out = ['--output', sys.argv[1]]",
        "assert main(['verify', '--suite', 'counts'] + out) == 0",
        "assert main(['surface', '--field', 'finite:p=3', '--a', '2',",
        "             '--check'] + out) == 0",
        "print('numpy' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_dash_m_severi():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "severi", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "usage: severi" in done.stdout


def test_zero_a_exit_2(capsys):
    for command in ("surface", "picard"):
        code, _, err = run(capsys, command, "--a", "0")
        assert code == 2
        assert "ZeroA" in err


@pytest.mark.parametrize("command", [("surface",), ("verify", "--suite", "cocycle")],
                         ids=["surface", "verify-cocycle"])
@pytest.mark.parametrize("n", ["0", "-1", "-3"])
def test_extension_degree_below_2_exit_2(capsys, command, n):
    code, out, err = run(capsys, *command, "--field", "finite:p=5", "--n", n)
    assert code == 2
    assert out == ""
    assert "input error: InputError: extension degree must be >= 2" in err


@pytest.mark.parametrize("spec,n", [("poly:1;galois:1", "-1"),
                                    ("poly:0;galois:0", "-2")])
def test_poly_spec_degree_below_2_exit_2(capsys, spec, n):
    # a constant f: the degree is refused before g is reduced mod f
    code, out, err = run(capsys, "surface", "--field", spec, "--n", n)
    assert code == 2
    assert out == ""
    assert "input error: InputError: extension degree must be >= 2" in err


def test_field_spec_degree_must_match_n(capsys):
    for spec in ("shanks:t=1", "poly:x^3 - 3*x - 1;galois:x^2 - 2"):
        code, out, err = run(capsys, "surface", "--field", spec, "--n", "3")
        assert code == 2
        assert out == ""
        assert "GrammarError" in err


def test_bad_field_spec_exit_2(capsys):
    code, _, err = run(capsys, "surface", "--field", "shanks:q=1")
    assert code == 2


def test_bad_scalar_exit_2(capsys):
    code, _, err = run(capsys, "picard", "--a", "two")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--field", "poly:x^99999999999;galois:x"),
    ("--field", "poly:(x+1)^100000;galois:x"),
    ("--field", "finite:p=5", "--a", "1e999999999"),
    ("--field", "finite:p=5", "--a", "1E5"),
], ids=["exponent", "power", "a-exponent", "a-exponent-upper"])
def test_unbounded_input_exit_2_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "surface", *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith("input error: GrammarError: ")


def test_scalar_forms_accepted(capsys):
    _, half, _ = run(capsys, "algebra", "--a", "1/2")
    code, decimal, _ = run(capsys, "algebra", "--a", "0.5")
    assert code == 0 and decimal == half
    code, out, _ = run(capsys, "algebra", "--a=-3/2")
    assert code == 0 and "a: -3/2\n" in out
    code, out, _ = run(capsys, "algebra", "--a", "3/4")
    assert code == 0 and "a: 3/4\n" in out


def test_equation_7_fails_on_another_normal_basis(capsys, monkeypatch):
    # the displayed relations written on a normal basis the model was not
    # built on do not hold, and equation 7's reconstruction does not vanish
    def other_basis_model(L, a):
        model = surface_model(L, a)
        nb = find_normal_basis(L, seed=L.theta() + L.one())
        assert nb != model.normal_basis
        return replace(model, normal_basis=nb)

    monkeypatch.setattr(cli, "surface_model", other_basis_model)
    code, out, _ = run(capsys, "surface", "--a", "2", "--check")
    assert code == 1
    assert "FAIL equation-7" in out
    assert "0 flagged" in out


@pytest.mark.parametrize("n,quadrics", [("4", 7000), ("8", 293937930)])
def test_surface_refuses_n_beyond_reach(capsys, n, quadrics):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "surface", "--field", "finite:p=2", "--n", n,
                         "--a", "1")
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert f"{quadrics} quadrics" in err


def test_split_suite_refuses_n_beyond_reach(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--field", "finite:p=2", "--n", "4",
                         "--a", "1", "--suite", "split")
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert "split suite goes up to n = 3" in err


def test_picard_and_algebra_take_n_4(capsys):
    for command in ("picard", "algebra"):
        code, out, _ = run(capsys, command, "--field", "finite:p=2", "--n", "4",
                           "--a", "1")
        assert code == 0 and "field: x^5 + x^2 + 1 over F_2" in out


def test_algebra_identities_are_reported_from_build_algebra(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "is_associative", lambda A: False)
    for argv in (("algebra",), ("verify", "--suite", "algebra")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "PASS" not in out
        assert "not associative" in err


def test_surface_check_is_reported_from_image_defect(capsys, monkeypatch):
    # over Q at n != 2, equation-count and equations-vanish are the
    # `image_defect` that surface_model passed
    monkeypatch.setattr(twisting, "image_defect", lambda *args: "broken")
    code, out, err = run(capsys, "surface", "--field", "poly:x^2 + 1;galois:-x",
                         "--n", "1", "--a", "2", "--check")
    assert code == 1 and "PASS" not in out
    assert "broken" in err


def test_picard_hyperplane(capsys):
    code, out, _ = run(capsys, "picard", "--field", "shanks:t=1",
                       "--a", "2", "--dprime", "1")
    assert code == 0
    assert "w0 + w6 + w9 = 0" in out
    assert "degree in the plane: 3" in out


# (field spec, n, a): Shanks t = 1 and F_3, F_5, F_7 at n = 2, F_2 at n = 3
SAME_BASIS_CASES = [(spec, 2, a) for spec in ("shanks:t=1", "finite:p=3",
                                              "finite:p=5", "finite:p=7")
                    for a in (1, 2)] + [("finite:p=2", 3, 1)]


def _field(spec, n):
    if spec.startswith("shanks"):
        return make_shanks_cubic(1)
    return frobenius_extension(int(spec.split("=")[1]), n + 1)


@pytest.mark.parametrize("spec,n,a", SAME_BASIS_CASES)
def test_picard_generator_lives_on_the_surface_model(capsys, spec, n, a):
    # `picard` writes its generator on the normal basis of the model that
    # `surface` prints, so it pulls back to the Fermat form through that
    # model's parametrization
    L = _field(spec, n)
    model = surface_model(L, a)
    assert find_normal_basis(L) == model.normal_basis
    code, out, _ = run(capsys, "picard", "--field", spec, "--n", str(n),
                       "--a", str(a), "--dprime", "2", "--emit", "json")
    assert code == 0
    blob = json.loads(out)
    g = picard_generator(L, a, 2)
    assert blob["field"] == extension_to_json(L)
    assert blob["equation"] == poly_to_json(g.equation)
    c = proportional(pullback_to_plane(model, g.equation), fermat(L, 2, a).poly)
    assert c is not None and not c.is_zero()


# stdout digests recorded when the witness coboundary was an averaging split
WITNESS_PATH_RUNS = [
    (("surface", "--field", "finite:p=7", "--a", "3", "--check"),
     "23ea5d4896bbd5cb768afb61237c7d25a1e06dbe2d84b8544e1f6682f24fee43"),
    (("verify", "--suite", "counts"),
     "214301517edb3388f9d4da0b71b9e700904d25c60b002eaafa8d1e25454f70e6"),
    (("verify", "--field", "shanks:t=1", "--a=-1", "--suite", "triviality"),
     "183f5715b6a47da65f9bad2c730dd9264380cd922ec830b70ae18ce5ce0642e5"),
]


@pytest.mark.parametrize("argv,digest", WITNESS_PATH_RUNS,
                         ids=["surface-f7", "counts", "triviality-minus1"])
def test_witness_path_needs_no_averaging_split(capsys, monkeypatch, argv, digest):
    # point counts and the triviality transport carry the model by D from a
    # norm witness; the witness coboundary is the structured split
    def refuse(*args, **kwargs):
        raise AssertionError("split_generic called off the split suite")

    monkeypatch.setattr(cohomology, "split_generic", refuse)
    monkeypatch.setattr(verify, "split_generic", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_picard_f3_dprime2_emission_pinned(capsys):
    code, out, _ = run(capsys, "picard", "--field", "finite:p=3", "--a", "2",
                       "--dprime", "2")
    assert code == 0
    assert "equation: w0^2 + w6^2 + w9^2 = 0" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "82aeff4243393fac11d48ddab5f59f9eb3a33d70d47ea1a05b38250d1d4c029c"


def test_picard_dprime_0_exit_2(capsys):
    code, out, err = run(capsys, "picard", "--dprime", "0")
    assert code == 2
    assert out == ""
    assert err == "input error: InputError: d' must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ("picard", "--field", "finite:p=7", "--a", "3", "--dprime", "100000"),
    ("picard", "--dprime", str(PICARD_MAX_DPRIME + 1)),
    ("verify", "--suite", "picard", "--dprime", "40"),
    ("verify", "--dprime", "40"),
], ids=["picard-f7", "picard-q", "verify-picard", "verify-all"])
def test_dprime_beyond_reach_exit_2_at_once(capsys, argv):
    # before the bound, the first did not return and the third took
    # more than a minute
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert out == ""
    assert err == (f"input error: InputError: d' = {argv[-1]} is out of "
                   f"reach: Picard generators go up to d' = {PICARD_MAX_DPRIME}\n")


def test_dprime_bound_is_in_the_library():
    L = make_shanks_cubic(1)
    for build in (picard_generator, lambda L, a, d: fermat(L, d, a)):
        with pytest.raises(InputError, match="out of reach"):
            build(L, 2, PICARD_MAX_DPRIME + 1)
    assert picard_generator(L, 2, PICARD_MAX_DPRIME).degree_in_plane == \
        3 * PICARD_MAX_DPRIME


def test_algebra_text(capsys):
    code, out, _ = run(capsys, "algebra", "--field", "shanks:t=1", "--a", "2")
    assert code == 0
    assert "dim: 9" in out
    assert "center dimension: 1" in out
    assert "associative: true" in out
    assert "e^3 = 2" in out


def test_algebra_chi_flag_changes_relation(capsys):
    _, out_default, _ = run(capsys, "algebra", "--a", "2")
    _, out_chi1, _ = run(capsys, "algebra", "--a", "2", "--chi", "1")
    assert out_default != out_chi1
    assert "e*t = (-2 - 2*t + t^2)*e" in out_chi1


def test_verify_paper_eqs(capsys):
    code, out, err = run(capsys, "verify", "--suite", "paper-eqs")
    assert code == 0
    assert "FLAG paper-eqs:equation-7" in out
    assert "7 checks: 6 pass, 1 flagged, 0 fail" in out
    assert "verify:" in err  # timing goes to stderr only


def test_verify_json_has_null_elapsed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cocycle", "--emit", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["elapsed_ms"] is None
    assert blob["seed"] == 0


def test_byte_determinism(capsys):
    _, out1, _ = run(capsys, "surface", "--a", "2", "--emit", "json")
    _, out2, _ = run(capsys, "surface", "--a", "2", "--emit", "json")
    assert out1 == out2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "model.json"
    code, out, _ = run(capsys, "surface", "--a", "2", "--emit", "json",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    blob = json.loads(target.read_text())
    assert blob["kind"] == "surface_model"


def test_output_unwritable_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "model.txt"
    code, out, err = run(capsys, "surface", "--field", "finite:p=3",
                         "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.parent.exists()
    # checked before the job: an n = 3 model with its point count takes
    # seconds, the refusal does not
    t0 = time.perf_counter()
    code, out, err = run(capsys, "surface", "--field", "finite:p=5", "--n", "3",
                         "--a", "2", "--check", "--output", str(target))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err == (f"input error: cannot write {target}: "
                   f"{os.strerror(errno.ENOENT)}\n")
    code, _, err = run(capsys, "picard", "--output", str(tmp_path))
    assert code == 2
    assert err == (f"input error: cannot write {tmp_path}: "
                   f"{os.strerror(errno.EISDIR)}\n")


def test_output_left_unchanged_when_the_job_fails(capsys, tmp_path):
    target = tmp_path / "model.txt"
    target.write_text("earlier emission\n")
    code, out, err = run(capsys, "surface", "--a", "0", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert target.read_text() == "earlier emission\n"


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SEVERI_SEED", "9")
    code, out, _ = run(capsys, "surface", "--a", "2", "--seed", "3")
    assert code == 0
    assert "seed: 9" in out


def test_env_seed_invalid(capsys, monkeypatch):
    monkeypatch.setenv("SEVERI_SEED", "banana")
    code, _, err = run(capsys, "surface", "--a", "2")
    assert code == 2
    assert "SEVERI_SEED" in err


def test_verify_suite_dedup_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cocycle",
                       "--suite", "cocycle")
    assert code == 0
    names = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(names) == 2  # two checks, suite ran once


QI_CONIC = ("--field", "poly:x^2 + 1;galois:-x", "--n", "1", "--a", "2")


def test_verify_picard_conic_over_q(capsys):
    # the genus formula is stated for plane curves; at n = 1 it is not checked
    code, out, _ = run(capsys, "verify", *QI_CONIC, "--suite", "picard")
    assert code == 0
    assert "genus" not in out
    assert "3 checks: 3 pass, 0 flagged, 0 fail" in out


def test_verify_triviality_conic_over_q(capsys):
    # over Q(i) norms are sums of two squares: -1 is not one, and need not be
    code, out, _ = run(capsys, "verify", *QI_CONIC, "--suite", "triviality")
    assert code == 0
    assert ("FLAG triviality:norm-minus1-coboundary  [no witness found; "
            "-1 need not be a norm in even degree]") in out
    assert "PASS triviality:witness-transports-model-to-veronese" in out


def test_verify_picard_n2_emission_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "picard")
    assert code == 0
    assert "PASS picard:dprime2-genus-formula" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a0732fcb3a086d053446dd0af07a62de6585e72e80c71742ee81b34986e1fa2b"


DUMPS_CASES = {
    "empty-containers": [[], {}, [[]], [{}], {"a": []}, {"b": {}},
                         [[[]], {"c": {}}]],
    "tuples": [(1, 2), [(), (3, (4, "x"))], {"t": (5,)}],
    "mixed-leaf": [1, "a", None, True, False, -7, ""],
    "big-ints": [2 ** 200, -(2 ** 200) + 1, {"n": 3 ** 130}],
    "escapes": ['", "', "\n", '"', "\\", "\x01\x1f", "caf\u00e9 \u2603",
                "\ud834\udd1e"],
    "escaped-keys": {'", "': 1, "\n": [2], "caf\u00e9": {"\\": None}},
    "floats": [0.1, -2.5, 1e300, float("nan"), float("inf"), -float("inf")],
    "deep": {"a": [[1, [2, [3, {"b": [4, (5, 6)]}]]], "s"]},
    "scalar-int": 12345678901234567890,
    "scalar-str": "top\tlevel",
    "scalar-null": None,
    "scalar-float": float("nan"),
}


@pytest.mark.parametrize("obj", DUMPS_CASES.values(), ids=DUMPS_CASES.keys())
def test_dumps_equals_json_dumps_indent_2(obj):
    assert cli.dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("L,a", [(make_shanks_cubic(3), Fraction(-12, 5)),
                                 (frobenius_extension(7, 3), 3)],
                         ids=["shanks-t3", "f7"])
def test_dumps_equals_json_dumps_on_emitted_documents(L, a):
    docs = [model_to_json(surface_model(L, a)),
            picard_to_json(picard_generator(L, a, 2), L),
            report_to_json(run_all(L, a, ("cocycle", "algebra"))),
            extension_to_json(L),
            table_to_json(build_algebra(L, a))]
    for doc in docs:
        assert cli.dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_refuses_non_str_keys_and_non_json_values():
    # json.dumps would write the key 1 as "1"; no emitter has such a key
    with pytest.raises(TypeError):
        cli.dumps({"a": [{1: 2}]})
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        cli.dumps({"a": [1, Fraction(1, 2)]})


PARSER_REUSE_RUNS = [
    ("verify", "--suite", "split", "--suite", "cocycle"),
    ("verify",),
    ("surface", "--field", "finite:p=5", "--a", "2"),
    ("surface", "--field", "finite:p=5", "--a", "2", "--emit", "json"),
    ("verify", "--suite", "split"),
]


def test_parser_built_once_leaks_nothing_between_calls(capsys):
    # the parser is cached, so a repeated `--suite` list or an `--emit`
    # choice of one call must not reach the next
    first = []
    for argv in PARSER_REUSE_RUNS:
        cli.build_parser.cache_clear()
        first.append(run(capsys, *argv)[:2])
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    for argv, expected in zip(PARSER_REUSE_RUNS, first):
        assert run(capsys, *argv)[:2] == expected
    assert cli.build_parser() is parser
    assert parser.parse_args(["verify"]).suite is None
