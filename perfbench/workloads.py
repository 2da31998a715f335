"""Seeded input generators for the three benchmark workloads.

A workload's inputs for one run form a *round*: a short list of jobs drawn
from the seed.  A run repeats its round until the measuring time is over, so
a faster program runs more jobs on the same inputs.  Each round has a fixed
make-up of cheap and dear jobs, and the seed only picks among inputs of
about the same cost, so that two seeds give rounds of similar total cost.

Only the generated `argv` (or, for `fp-n3-twist`, the pair (p, a)) reaches
the program; nothing here imports `severi`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from gate import SUITES


@dataclass(frozen=True)
class Job:
    """One closed-loop job.

    `argv` is passed to `severi.cli.main` unchanged; `twist` is set instead
    for the library pipeline of `fp-n3-twist`.
    """

    workload: str
    argv: tuple[str, ...] = ()
    twist: Optional[tuple[int, int]] = None  # (p, a) for fp-n3-twist

    @property
    def key(self) -> str:
        if self.twist is not None:
            p, a = self.twist
            return f"n3-twist p={p} a={a}"
        return "severi " + " ".join(self.argv)


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational with |numerator| <= 12 and denominator <= 6."""
    while True:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if a != 0:
            return a


def _is_rational_cube(a: Fraction) -> bool:
    def cube(v: int) -> bool:
        r = round(abs(v) ** (1 / 3))
        return any((r + d) ** 3 == abs(v) for d in (-1, 0, 1))
    return cube(a.numerator) and cube(a.denominator)


def shanks_norm(t: int, x: tuple[int, int, int]) -> Fraction:
    """N(x0 + x1*theta + x2*theta^2) for theta a root of the simplest cubic
    x^3 - t x^2 - (t+3) x - 1: the determinant of multiplication by the
    element in the basis 1, theta, theta^2."""
    # Columns: images of 1, theta, theta^2 under multiplication by theta.
    c = [[0, 0, 1], [1, 0, t + 3], [0, 1, t]]
    c2 = [[sum(c[i][k] * c[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    m = [[x[0] * (i == j) + x[1] * c[i][j] + x[2] * c2[i][j]
          for j in range(3)] for i in range(3)]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return Fraction(det)


def _scalar_arg(a: Fraction) -> str:
    # `--a=-3/2` rather than `--a -3/2`: argparse reads a leading '-' as a flag.
    return f"--a={a}"


def _q_surface(rng: random.Random) -> list[Job]:
    """Five jobs on five distinct t, so that the median job is one of them
    and one dear field cannot dominate a round."""
    return [Job("q-surface", ("surface", "--field", f"shanks:t={t}",
                              _scalar_arg(_rational(rng)), "--check",
                              "--emit", "json"))
            for t in rng.sample(range(1, 9), 5)]


# The split and twist cost about the same for each of these primes; F_3,
# the one markedly cheaper field, is left out.
_N3_PRIMES = (5, 7, 11, 13)


def _fp_n3_twist(rng: random.Random) -> list[Job]:
    """One job per prime, each with a random a, in a random order."""
    return [Job("fp-n3-twist", twist=(p, rng.randint(1, p - 1)))
            for p in rng.sample(_N3_PRIMES, len(_N3_PRIMES))]


# Suites run on a = N(lambda), so that `triviality` finds a norm witness and
# transports the split; the others run on a random rational a.
_NORM_SUITES = ("cocycle", "paper-eqs", "counts", "triviality")


def _verify_suites(rng: random.Random) -> list[Job]:
    """One job per suite, `verify --suite S`: four suites on a = N(lambda)
    for a small lambda, so that the witness-transport check runs, and four
    on a random rational a.  Which suite takes which a is fixed, so every
    round has the same make-up; the two values of t are paired
    antithetically (t + t' = 9) so that every round spans the same range of
    field sizes."""
    t_norm = rng.randint(1, 8)
    t_rand = 9 - t_norm
    while True:
        lam = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        if lam[1] or lam[2]:
            break
    a_norm = shanks_norm(t_norm, lam)
    a_rand = _rational(rng)
    while _is_rational_cube(a_rand):
        a_rand = _rational(rng)
    jobs = []
    for suite in SUITES:
        t, a = (t_norm, a_norm) if suite in _NORM_SUITES else (t_rand, a_rand)
        jobs.append(Job("verify-suites",
                        ("verify", "--field", f"shanks:t={t}", _scalar_arg(a),
                         "--suite", suite, f"--seed={rng.randint(0, 99)}",
                         "--emit", "json")))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "q-surface": _q_surface,
    "fp-n3-twist": _fp_n3_twist,
    "verify-suites": _verify_suites,
}


def round_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one round of `workload` at `seed`; the same seed always
    gives the same jobs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
