#!/usr/bin/env python3
"""Walk the full construction once and print every artifact.

Builds the companion cocycle for (L, a), lifts it to the degree-3 Veronese
space, splits it with the normal-basis structured split, descends the twisted
quadrics to the base field, and prints the splitting matrix, the equations,
the Picard-generator hyperplane, and the per-equation vanishing report.

Usage:
    python scripts/build_surface.py                 # Shanks t=1, a=2
    python scripts/build_surface.py --field finite:p=7 --a 3
    python scripts/build_surface.py --a -1 --dprime 2
"""
import argparse
import sys
import time

from severi import (
    fermat,
    format_poly,
    omega_names,
    parse_field_spec,
    picard_generator,
    plane_names,
    pullback_to_plane,
    surface_model,
    verify_theorem1_equations,
)
from severi.cli import _parse_a
from severi.errors import InputError
from severi.fields import format_element, format_scalar, format_univariate
from severi.twisting import proportional


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", default="shanks:t=1")
    ap.add_argument("--a", default="2")
    ap.add_argument("--dprime", type=int, default=1)
    args = ap.parse_args()
    lines: list[str] = []
    try:
        code = build(args, lines.append)
    except InputError as e:  # the exit code, message and empty stdout of `severi`
        print(f"input error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


def build(args, emit) -> int:
    """Walk the construction, passing each line of the report to `emit`."""
    L = parse_field_spec(args.field)
    a = _parse_a(L, args.a)
    base_name = "Q" if L.base.p is None else f"F_{L.base.p}"
    emit(f"field    {base_name}[x]/({format_univariate(L.f)})")
    emit(f"galois   x -> {format_univariate(L.g)}")
    emit(f"a        {format_scalar(a)}")

    t0 = time.perf_counter()
    model = surface_model(L, a)
    nb = model.normal_basis
    emit(f"normal basis  l1 = {format_element(nb.elements[0])}, orbit under "
          f"sigma, trace {format_scalar(nb.trace_value)}")
    emit(f"\nsplitting matrix (10x10, entries in L), built in "
          f"{time.perf_counter() - t0:.2f}s:")
    for row in model.splitting_matrix.as_rows():
        cells = [format_element(e) if not e.is_zero() else "." for e in row]
        emit("  [" + " | ".join(f"{c:>14}" for c in cells) + "]")

    names = omega_names(model.m)
    emit(f"\n{len(model.equations_over_k)} quadrics over {base_name} "
          f"(every one vanishes on the parametrization):")
    for eq in model.equations_over_k:
        emit(f"  {format_poly(eq, names)} = 0")

    gen = picard_generator(L, a, args.dprime)
    emit(f"\nPicard generator (d' = {args.dprime}, plane degree "
          f"{gen.degree_in_plane}):")
    emit(f"  {format_poly(gen.equation, names)} = 0")

    target = fermat(L, args.dprime, a).poly
    c = proportional(pullback_to_plane(model, gen.equation), target)
    if c is None:
        emit("  pullback through the parametrization is not a Fermat multiple")
        return 1
    emit(f"  pullback through the parametrization = "
          f"({format_element(c)}) * [{format_poly(target, plane_names(2))}]")

    if L.degree == 3:
        emit("\nequation report (paper-eqs suite):")
        for name, status, note in verify_theorem1_equations(model):
            note = f"  ({note})" if note else ""
            emit(f"  {status.upper():4} {name}{note}")
    emit(f"\ntotal {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
