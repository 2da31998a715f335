#!/usr/bin/env python3
"""Survey point counts and class triviality across primes and twists a.

Part 1 counts rational points on the twisted surface over small prime fields,
for every unit a, and checks the count against p^2 + p + 1.  The appendix
route relabels the main model, so it is compared by its equations, not
counted again.

Part 2 probes triviality of the class over Q for a range of twists: a norm
witness lam with N(lam) = a splits the cocycle explicitly, while exhausting a
search bound without one is reported as evidence only, never as a proof.

Usage:
    python scripts/count_survey.py
    python scripts/count_survey.py --primes 2 3 5 7 11 --bound 500
"""
import argparse
import sys
import time
from fractions import Fraction

from severi import (
    GF,
    appendix_model,
    frobenius_extension,
    make_shanks_cubic,
    norm_witness,
    rational_points,
    smoothness_spot,
    surface_model,
)
from severi.fields import format_element


def survey_prime(p: int) -> None:
    L = frobenius_extension(p, 3)
    expected = p * p + p + 1
    print(f"p = {p}  (expected {expected})")
    for a_int in range(1, p):
        a = GF(p).coerce(a_int)
        t0 = time.perf_counter()
        main = surface_model(L, a)
        appx = appendix_model(main)
        pts = rational_points(main, p)
        n_main = len(pts)
        same = (main.equations_over_k == appx.equations_over_k
                and main.parametrization.basis == appx.parametrization.basis)
        smooth = smoothness_spot(main, p, pts).ok
        dt = time.perf_counter() - t0
        marks = []
        if n_main != expected:
            marks.append("COUNT MISMATCH")
        if not same:
            marks.append("PROVENANCE MISMATCH")
        if not smooth:
            marks.append("SINGULAR POINT")
        verdict = " ".join(marks) if marks else "ok"
        print(f"  a = {a_int}: count {n_main}, "
              f"smooth-spot {'pass' if smooth else 'FAIL'}  "
              f"[{verdict}, {dt:.2f}s]")


def probe_triviality(bound: int) -> None:
    L = make_shanks_cubic(1)
    print(f"\ntriviality over Q (Shanks t = 1, witness bound {bound}):")
    for a_num in (-1, 1, 2, 3, 5, -7):
        res = norm_witness(L, L.base.coerce(Fraction(a_num)), bound=bound)
        if res.status == "witness":
            print(f"  a = {a_num:3}: split by lam = "
                  f"{format_element(res.witness)}  "
                  f"({res.tried} candidates tried)")
        else:
            print(f"  a = {a_num:3}: no witness among {res.tried} candidates "
                  f"with height <= {res.bound}; class may be nontrivial "
                  f"(not a proof)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    ap.add_argument("--bound", type=int, default=200)
    args = ap.parse_args()

    t0 = time.perf_counter()
    for p in args.primes:
        survey_prime(p)
    probe_triviality(args.bound)
    print(f"\ntotal {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
