"""Command-line entry point.

Subcommands: surface, picard, algebra, verify.  Emissions are UTF-8 text or
JSON (stamped "schema": 1) and are byte-identical for identical config and
seed; timings therefore go to stderr, never into emissions.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from .algebra import build_algebra, table_to_json
from .errors import GrammarError, InputError, SeveriError, VerificationError
from .fields import (extension_to_json, format_element, format_scalar,
                     format_univariate, galois_apply, scalar_to_json)
from .grammar import format_poly, omega_names, parse_field_spec
from .twisting import (model_to_json, picard_generator, picard_to_json,
                       surface_model, verify_theorem1_equations)
from .verify import (ALL_SUITES, Check, Report, count_and_smoothness,
                     projective_point_count, report_to_json, run_all)

_STATUS_MARK = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="shanks:t=1",
                        help="shanks:t=T | finite:p=P | poly:<f>;galois:<g>")
    common.add_argument("--a", default="2", help="nonzero base-field scalar")
    common.add_argument("--n", type=int, default=2,
                        help="dimension of the variety (extension degree n+1)")
    common.add_argument("--chi", type=int, default=None,
                        help="character convention u with chi(sigma) = zeta^u "
                             "(1 or n; default n)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed in emissions (SEVERI_SEED overrides)")
    common.add_argument("--emit", choices=("text", "json"), default="text")
    common.add_argument("--output", default=None, help="file path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="severi",
        description="Brauer-Severi surface models, Picard generators, and "
                    "cyclic algebras from cyclic extension data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_surface = sub.add_parser("surface", parents=[common],
                               help="equations over the base field")
    p_surface.add_argument("--check", action="store_true",
                           help="verify the model (point count / equations)")
    p_surface.add_argument("--matrix", action="store_true",
                           help="include the splitting matrix in text output")

    p_picard = sub.add_parser("picard", parents=[common],
                              help="twisted Fermat Picard-group generator")
    p_picard.add_argument("--dprime", type=int, default=1)

    sub.add_parser("algebra", parents=[common],
                   help="cyclic algebra structure constants")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run verification suites")
    p_verify.add_argument("--suite", action="append", choices=ALL_SUITES,
                          default=None, help="suite name (repeatable; default all)")
    p_verify.add_argument("--dprime", type=int, default=2)
    return parser


def _field_header(L) -> list[str]:
    lines = [f"field: {format_univariate(L.f)} over "
             + ("QQ" if L.base.p is None else f"F_{L.base.p}"),
             f"galois: x -> {format_univariate(L.g)}"]
    return lines


def _parse_a(L, text: str):
    if "e" in text.lower():  # Fraction("1e999999999") builds 10**999999999
        raise GrammarError(f"scalar {text!r} uses exponent notation; "
                           "write an integer, p/q or a decimal")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GrammarError(f"cannot parse scalar {text!r}") from None
    return L.base.coerce(value)


def _check_report_for_surface(model) -> Report:
    checks: list[Check] = []
    p = model.extension.base.p
    if p is not None:
        cnt, rep = count_and_smoothness(model, p)
        expected = projective_point_count(model.n, p)
        checks.append(Check(f"count-p{p}", "pass" if cnt == expected else "fail",
                            str(cnt)))
        if rep is not None:
            checks.append(Check(f"smooth-p{p}",
                                "pass" if rep.ok else "fail"))
    elif model.n == 2:
        for row in verify_theorem1_equations(model):
            checks.append(Check(row["name"], row["status"], row.get("note")))
    else:
        # surface_model returned, so `image_defect` accepted the model: it
        # has ideal_quadric_count equations, and each vanishes on the image
        checks += [Check("equation-count", "pass",
                         str(len(model.equations_over_k))),
                   Check("equations-vanish", "pass")]
    return Report("surface-check", tuple(checks))


def _report_lines(rep: Report) -> list[str]:
    lines = []
    for c in rep.checks:
        line = f"{_STATUS_MARK[c.status]} {c.name}"
        if c.witness:
            line += f"  [{c.witness}]"
        lines.append(line)
    n_pass = sum(1 for c in rep.checks if c.status == "pass")
    n_flag = sum(1 for c in rep.checks if c.status == "flagged")
    n_fail = sum(1 for c in rep.checks if c.status == "fail")
    lines.append(f"{len(rep.checks)} checks: {n_pass} pass, "
                 f"{n_flag} flagged, {n_fail} fail")
    return lines


def cmd_surface(args, L, a, seed: int) -> tuple[str, int]:
    model = surface_model(L, a)
    report = _check_report_for_surface(model) if args.check else None
    code = 0 if report is None or report.ok else 1
    if args.emit == "json":
        obj = model_to_json(model)
        obj["seed"] = seed
        if report is not None:
            obj["report"] = report_to_json(report)
        return json.dumps(obj, indent=2) + "\n", code
    names = omega_names(model.m)
    lines = [f"surface model ({model.provenance})"]
    lines += _field_header(L)
    lines += [f"a: {format_scalar(a)}", f"seed: {seed}", f"m: {model.m}",
              "normal basis: " + ", ".join(
                  format_element(e) for e in model.normal_basis.elements)]
    lines.append(f"equations ({len(model.equations_over_k)}):")
    for F in model.equations_over_k:
        lines.append("  " + format_poly(F, names) + " = 0")
    if args.matrix:
        lines.append("splitting matrix (rows):")
        for row in model.splitting_matrix.as_rows():
            lines.append("  [" + ", ".join(format_element(e) for e in row) + "]")
    if report is not None:
        lines.append("check:")
        lines += ["  " + s for s in _report_lines(report)]
    return "\n".join(lines) + "\n", code


def cmd_picard(args, L, a, seed: int) -> tuple[str, int]:
    g = picard_generator(L, a, args.dprime)
    if args.emit == "json":
        obj = picard_to_json(g, L)
        obj["seed"] = seed
        return json.dumps(obj, indent=2) + "\n", 0
    names = omega_names(g.equation.nvars)
    lines = [f"picard generator (d' = {g.dprime})"]
    lines += _field_header(L)
    lines += [f"a: {format_scalar(a)}", f"seed: {seed}",
              f"degree in the plane: {g.degree_in_plane}",
              f"equation: {format_poly(g.equation, names)} = 0"]
    return "\n".join(lines) + "\n", 0


def cmd_algebra(args, L, a, seed: int) -> tuple[str, int]:
    # build_algebra raises unless A is associative with center k
    A = build_algebra(L, a)
    n1 = L.degree
    u = pow(L.character_convention, -1, n1)
    sigma_prime_theta = galois_apply(L, L.theta(), u)
    if args.emit == "json":
        obj = {
            "schema": 1,
            "kind": "cyclic_algebra",
            "field": extension_to_json(L),
            "a": scalar_to_json(a),
            "dim": A.dim,
            "center_dimension": 1,
            "associative": True,
            "basis": [A.basis_label(i) for i in range(A.dim)],
            "table": table_to_json(A),
            "seed": seed,
        }
        return json.dumps(obj, indent=2) + "\n", 0
    lines = ["cyclic algebra"]
    lines += _field_header(L)
    lines += [f"a: {format_scalar(a)}", f"seed: {seed}", f"dim: {A.dim}",
              "center dimension: 1",
              "associative: true",
              f"relations: e^{n1} = {format_scalar(a)}, "
              f"e*t = ({format_element(sigma_prime_theta)})*e"]
    return "\n".join(lines) + "\n", 0


def cmd_verify(args, L, a, seed: int) -> tuple[str, int]:
    suites = tuple(dict.fromkeys(args.suite)) if args.suite else ALL_SUITES
    t0 = time.perf_counter()
    rep = run_all(L, a, suites, args.dprime)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    print(f"verify: {len(rep.checks)} checks in {elapsed_ms} ms",
          file=sys.stderr)
    code = 0 if rep.ok else 1
    if args.emit == "json":
        obj = report_to_json(rep)
        obj["seed"] = seed
        return json.dumps(obj, indent=2) + "\n", code
    return "\n".join(_report_lines(rep)) + "\n", code


_COMMANDS = {
    "surface": cmd_surface,
    "picard": cmd_picard,
    "algebra": cmd_algebra,
    "verify": cmd_verify,
}


def _unwritable(path: str) -> Optional[str]:
    """Why `path` cannot be written, or None; decided before the job runs,
    without creating or truncating anything."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return os.strerror(code)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed
    env_seed = os.environ.get("SEVERI_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"input error: SEVERI_SEED must be an integer, "
                  f"got {env_seed!r}", file=sys.stderr)
            return 2
    if args.output is not None:
        reason = _unwritable(args.output)
        if reason is not None:
            print(f"input error: cannot write {args.output}: {reason}",
                  file=sys.stderr)
            return 2
    try:
        L = parse_field_spec(args.field, degree=args.n + 1,
                             character_convention=args.chi)
        a = _parse_a(L, args.a)
        text, code = _COMMANDS[args.command](args, L, a, seed)
    except InputError as e:
        print(f"input error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except SeveriError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"input error: cannot write {args.output}: {e.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
