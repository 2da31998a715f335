"""Cross-cutting verification harness.

Point counts over prime fields, Jacobian smoothness spot checks, genus
formulas, and suite runners producing machine-readable reports.  Over
F_p a norm witness gives a parametrization D o Ver with D in GL_m(k); it
has the image of P o Ver, which `surface_model` certified the equations
cut out, so the points are the image of P^n(F_p) and the count is a
theorem.  The Jacobian rank at each of those points is counted only up
to its ceiling m-1-n (`smoothness_spot`).

A suite reports an identity that a constructor certifies (twisted products
in `make_cocycle`, split residuals in `check_split`, associativity and
center in `build_algebra`) from that constructor, without recomputing it:
such a check stops the run by an exception, never by a FAIL line.  The
`split` suite's `differs-by-fixed-matrix` is one: two splits that pass
`check_split`, each of k-rank m, differ by a matrix in GL_m(k)
(`_suite_split`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .algebra import (build_algebra, diagonal_table,
                      left_multiplication_is_singular, table_center_dimension,
                      zero_divisor_from_witness)
from .cohomology import (coboundary_from_witness, cyclic_cocycle, k_rank,
                         lift_to_veronese, split_generic, split_structured,
                         witness_split_scalar)
from .errors import InputError, InternalDescentFailure, SearchExhausted
from .fields import (GF, CyclicExtension, find_normal_basis, frobenius_extension,
                     norm_witness, rank)
from .linalg import Matrix, mul
from .polyring import MultiPoly, make_poly
from .twisting import (SURFACE_MAX_N, SurfaceModel, appendix_model,
                       check_dprime, fermat, image_defect, picard_generator,
                       proportional, pullback_to_plane, surface_model,
                       verify_theorem1_equations)
from .veronese import induced_matrix

SMOOTHNESS_MAX_P = 3  # one check per point, emitted by the `counts` suite


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "flagged"
    witness: Optional[str] = None


@dataclass(frozen=True)
class Report:
    suite: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def report_to_json(r: Report) -> dict:
    checks = []
    for c in r.checks:
        entry = {"name": c.name, "status": c.status}
        if c.witness is not None:
            entry["witness"] = c.witness
        checks.append(entry)
    # a report carries no time, so that emissions are byte-deterministic
    return {"schema": 1, "suite": r.suite, "checks": checks,
            "elapsed_ms": None}


def genus_plane(d: int) -> int:
    """Genus of a smooth plane curve of degree d."""
    if d < 1:
        raise InputError("degree must be >= 1")
    return (d - 1) * (d - 2) // 2


def projective_point_count(n: int, p: int) -> int:
    """|P^n(F_p)| = (p^(n+1) - 1)/(p - 1), the point count of a
    Brauer-Severi variety of dimension n that has a rational point."""
    return (p ** (n + 1) - 1) // (p - 1)


# ---------------------------------------------------------------------------
# Point counting
# ---------------------------------------------------------------------------

def _require_prime_model(model: SurfaceModel, p: int) -> None:
    if model.extension.base.p != p:
        raise InputError(f"model is not over F_{p}")


def _plane_reps(p: int, k: int):
    """Monic representatives of P^{k-1}(F_p)."""
    for tup in itertools.product(range(p), repeat=k):
        fi = next((i for i, v in enumerate(tup) if v), None)
        if fi is not None and tup[fi] == 1:
            yield tup


def base_change_matrix(model: SurfaceModel, lam=None) -> Matrix:
    """D = P * Mw in GL_m(k), carrying the standard Veronese image onto the
    model: P is the model's parametrization matrix, Mw = s * Ver(Pw) with
    Pw = coboundary_from_witness(lam) and s = witness_split_scalar(lam).
    The test that D lies in k certifies that Mw splits the lifted cocycle
    xi: sigma(P) = P * xi, so sigma(D) = D exactly when xi * sigma(Mw) = Mw.
    It is computed as (s * P) * Ver(Pw), which scales P's nonzeros rather
    than the m^2 entries of Ver(Pw), and is the same D entry for entry.
    D is invertible as a product of parts proven so: P by `inverse` in
    `surface_model`, Pw by the k-rank in `coboundary_from_witness`, and so
    Ver(Pw), since Ver is multiplicative, and s by N(lam) = a != 0.
    """
    L = model.extension
    if lam is None:
        res = norm_witness(L, model.a)
        if res.status != "witness":
            raise SearchExhausted(
                f"no norm witness for a = {model.a} within bound {res.bound}")
        lam = res.witness
    Pw = coboundary_from_witness(L, model.a, lam)
    sP = model.parametrization.matrix.scale(witness_split_scalar(L, lam))
    D = mul(sP, induced_matrix(model.parametrization.basis, Pw))
    if any(not ent.in_base() for row in D.sparse_rows for _, ent in row):
        raise InternalDescentFailure("base change matrix is not Galois-fixed")
    return D


def rational_points(model: SurfaceModel, p: int) -> list[tuple[int, ...]]:
    """The F_p-points of the model, as the image of P^n(F_p) under D o Ver
    with D = base_change_matrix(model); injectivity is checked by the count.

    The image is all of them without a second certificate.  D = P * Mw with
    Mw = s * induced_matrix(basis, Pw), and `coboundary_from_witness`
    proved Pw invertible by its k-rank, so D o Ver(x) = s * P o Ver(Pw x)
    has the image of P o Ver.  `surface_model` returned the model only
    after `image_defect(equations, basis, P)` proved that the equations
    cut out that image.  D has entries in F_p and D o Ver is injective, so
    an F_p-point of the image comes from a Frobenius-fixed x in P^n(F_p)."""
    _require_prime_model(model, p)
    D = base_change_matrix(model)
    basis = model.parametrization.basis
    dint = [[int(c.base_value()) % p for c in row] for row in D.as_rows()]
    pts: set[tuple[int, ...]] = set()
    for u in _plane_reps(p, basis.n + 1):
        v = [prod(pow(x, k, p) for x, k in zip(u, exps)) % p for exps in basis.list]
        y = [sum(d * x for d, x in zip(row, v)) % p for row in dint]
        s = pow(next(val for val in y if val), -1, p)
        pts.add(tuple(val * s % p for val in y))
    if len(pts) != projective_point_count(basis.n, p):
        raise InternalDescentFailure("parametrization image is not injective")
    return sorted(pts)


def count_points(model: SurfaceModel, p: int) -> int:
    return len(rational_points(model, p))


# ---------------------------------------------------------------------------
# Smoothness
# ---------------------------------------------------------------------------

def _int_polys(polys: Sequence[MultiPoly], p: int
               ) -> list[list[tuple[tuple[int, ...], int]]]:
    k = GF(p)
    return [[(e, k.coerce(c.base_value())) for e, c in F.terms] for F in polys]


def _quadric_terms(equations: Sequence[MultiPoly], p: int
                   ) -> list[list[tuple[int, int, int]]]:
    """Each term c w_a w_b (a <= b) of each quadric as (a, b, c mod p)."""
    out = []
    for eq in _int_polys(equations, p):
        row = []
        for e, c in eq:
            if sum(e) != 2:
                raise InputError(f"term of degree {sum(e)} in a quadric")
            a, b = [i for i, k in enumerate(e) for _ in range(k)]
            row.append((a, b, c))
        out.append(row)
    return out


def _jacobian_rank(quadrics, point: Sequence[int], p: int,
                   ceiling: Optional[int] = None) -> int:
    """Rank mod p of the Jacobian of `_quadric_terms` at `point`, without
    the column of its first nonzero coordinate: c w_a w_b adds c pt_b at
    column a and c pt_a at column b, which for a = b is 2c pt_a.  The rows
    are built as `fields.rank` reads them, and it stops at `ceiling`."""
    fi = next((i for i, v in enumerate(point) if v % p), None)
    if fi is None:
        raise InputError("zero point")

    def rows():
        for eq in quadrics:
            acc: dict[int, int] = {}
            for a, b, c in eq:
                acc[a] = acc.get(a, 0) + c * point[b]
                acc[b] = acc.get(b, 0) + c * point[a]
            yield [(j, v % p) for j, v in acc.items() if j != fi]
    return rank(GF(p), rows(), ceiling)


def smoothness_spot(model: SurfaceModel, p: int,
                    points: Sequence[tuple[int, ...]]) -> Report:
    """Jacobian rank m-1-n, the codimension of the n-dimensional model in
    P^{m-1}, at each of `points`, the F_p-points `rational_points(model, p)`
    lists.

    `points` must be points of X, such as `rational_points` lists: the
    rank is taken only up to m-1-n, which no point of X exceeds, so a point
    off X whose rank is higher is not told apart from a smooth point.  The
    equations vanish on the affine cone over X, of dimension n+1, so at a
    nonzero point of the cone the kernel of the m-column Jacobian, the
    tangent space of the scheme they cut out, holds the cone's tangent
    space, of dimension at least n+1, in every characteristic; dropping
    the column of the first nonzero coordinate cannot raise the rank.  A
    point that reaches m-1-n passes, and one that does not fails with its
    full rank."""
    _require_prime_model(model, p)
    target = model.m - 1 - model.n
    quadrics = _quadric_terms(model.equations_over_k, p)
    checks = []
    for pt in points:
        r = _jacobian_rank(quadrics, pt, p, target)
        label = "jacobian-rank@(" + ",".join(str(v) for v in pt) + ")"
        if r == target:
            checks.append(Check(label, "pass"))
        else:
            checks.append(Check(label, "fail", f"rank {r}, expected {target}"))
    return Report(f"smoothness-p{p}", tuple(checks))


def count_and_smoothness(model: SurfaceModel, p: int
                         ) -> tuple[int, Optional[Report]]:
    """The number of F_p-points and, when p <= SMOOTHNESS_MAX_P, the
    smoothness report at those points, from one enumeration."""
    if p > SMOOTHNESS_MAX_P:
        return count_points(model, p), None
    pts = rational_points(model, p)
    return len(pts), smoothness_spot(model, p, pts)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

ALL_SUITES = ("cocycle", "split", "paper-eqs", "picard", "counts",
              "algebra", "triviality", "appendix")

# norm-witness search bound of the `triviality` suite
WITNESS_BOUND = 1000


def _ok(name: str, cond: bool, witness: Optional[str] = None) -> Check:
    return Check(name, "pass" if cond else "fail",
                 None if cond else witness)


def _suite_cocycle(L, a, dprime, model_of) -> list[Check]:
    # make_cocycle computed each twisted product as scalar_class * I, and
    # cyclic_cocycle and lift_to_veronese raise unless it is a, resp. 1
    xi = cyclic_cocycle(L, a)
    lift = lift_to_veronese(xi)
    return [_ok("companion-twisted-power-is-aI",
                xi.scalar_class == L.from_base(a)),
            _ok("lift-twisted-power-is-identity", lift.scalar_class == L.one())]


def _suite_split(L, a, dprime, model_of) -> list[Check]:
    # both splits pass `check_split`, the zero residual, before they return,
    # so the columns of each lie in the k-form V of L^m (cohomology
    # docstring), whose k-dimension is m.  Ms is invertible when its k-rank
    # is m; its columns are then a k-basis of V, so Mg's lie in their
    # k-span: Mg = Ms X with X over k, and X is invertible because
    # `split_generic` proved Mg so.  Like the residuals, that is reported
    # from those proofs.
    if L.degree - 1 > SURFACE_MAX_N:  # refused before the lift
        raise InputError(f"n = {L.degree - 1} is out of reach: the split suite "
                         f"goes up to n = {SURFACE_MAX_N}")
    lift = lift_to_veronese(cyclic_cocycle(L, a))
    Ms = split_structured(lift, find_normal_basis(L))
    if k_rank(Ms) < Ms.rows:
        raise InternalDescentFailure("structured split produced a singular matrix")
    checks = [Check("structured-residual-zero", "pass")]
    for seed in range(5):
        split_generic(lift, rng_seed=seed)
        checks.append(Check(f"generic-seed{seed}-residual-zero", "pass"))
        checks.append(Check(f"generic-seed{seed}-differs-by-fixed-matrix", "pass"))
    return checks


def _suite_paper_eqs(L, a, dprime, model_of) -> list[Check]:
    if L.degree != 3:
        return [Check("skipped", "pass", "requires a cubic extension")]
    return paper_eqs_checks(model_of(L, a))


def paper_eqs_checks(model) -> list[Check]:
    """`verify_theorem1_equations` as checks, each note its witness."""
    return [Check(*row) for row in verify_theorem1_equations(model)]


def _suite_picard(L, a, dprime, model_of) -> list[Check]:
    n = L.degree - 1
    model = model_of(L, a)
    basis = model.parametrization.basis
    gens = {dp: picard_generator(L, a, dp) for dp in sorted({1, dprime})}
    hyper = make_poly(L, basis.m, {
        tuple(1 if t == i else 0 for t in range(basis.m)): L.one()
        for i in basis.pure_power_indices()})
    c = proportional(gens[1].equation, hyper)
    checks = [_ok("dprime1-is-hyperplane-multiple",
                  c is not None and not c.is_zero())]
    for dp, g in gens.items():
        pull = pullback_to_plane(model, g.equation)
        fer = fermat(L, dp, a)
        cc = proportional(pull, fer.poly)
        checks.append(_ok(f"dprime{dp}-pullback-is-fermat-multiple",
                          cc is not None and not cc.is_zero()))
        if n == 2:  # `fermat` gives a genus only for plane curves
            checks.append(_ok(f"dprime{dp}-genus-formula",
                              genus_plane((n + 1) * dp) == fer.genus))
    if n == 2:
        checks.append(_ok("genus-values-1-and-10",
                          genus_plane(3) == 1 and genus_plane(6) == 10))
    return checks


_COUNT_TOWERS = ((2, 1), (3, 2), (7, 3))


def _suite_counts(L, a, dprime, model_of) -> list[Check]:
    checks = []
    for p, ap in _COUNT_TOWERS:
        F = frobenius_extension(p, 3)
        model = model_of(F, ap)
        cnt, rep = count_and_smoothness(model, p)
        expected = projective_point_count(model.n, p)
        checks.append(_ok(f"count-p{p}-is-{expected}", cnt == expected,
                          f"counted {cnt}"))
        if rep is not None:
            checks.append(_ok(f"smooth-p{p}-rank-{model.m - 1 - model.n}",
                              rep.ok))
    return checks


def _suite_algebra(L, a, dprime, model_of) -> list[Check]:
    # build_algebra raises unless the algebra is associative with center k
    n1 = L.degree
    A = build_algebra(L, a)
    checks = [
        _ok(f"dimension-{n1 * n1}", A.dim == n1 * n1),
        Check("associative-on-basis-triples", "pass"),
        Check("center-dimension-1", "pass"),
    ]
    F5 = frobenius_extension(5, 3)
    A5 = build_algebra(F5, 2)
    checks.append(Check("f5-center-dimension-1", "pass"))
    res5 = norm_witness(F5, F5.base.coerce(2))
    x5 = zero_divisor_from_witness(A5, res5.witness)
    checks.append(_ok("f5-witness-zero-divisor-singular",
                      left_multiplication_is_singular(A5, x5)))
    guard = diagonal_table(L.base, 3)
    checks.append(_ok("commutative-guard-center-3",
                      table_center_dimension(L.base, guard) == 3))
    return checks


def _suite_triviality(L, a, dprime, model_of) -> list[Check]:
    checks = []
    minus1 = L.base.coerce(-1)
    res1 = norm_witness(L, minus1, bound=WITNESS_BOUND)
    if res1.status == "witness":
        coboundary_from_witness(L, minus1, res1.witness)
        checks.append(Check("norm-minus1-coboundary", "pass"))
    elif L.degree % 2 == 0:
        # N(-1) = (-1)^[L:k] = 1 here, so -1 need not be a norm (over Q(i) it is not)
        checks.append(Check("norm-minus1-coboundary", "flagged",
                            "no witness found; -1 need not be a norm in even degree"))
    else:
        checks.append(Check("norm-minus1-coboundary", "fail",
                            "no witness found"))
    res = norm_witness(L, a, bound=WITNESS_BOUND)
    if res.status == "witness":
        model = model_of(L, a)
        D = base_change_matrix(model, lam=res.witness)
        checks.append(_ok("witness-transports-model-to-veronese",
                          image_defect(model.equations_over_k,
                                       model.parametrization.basis, D) is None))
    else:
        checks.append(Check(
            "nontrivial-class", "pass",
            f"no norm witness within bound {res.bound}; not a proof"))
    return checks


_APPENDIX_TOWERS = ((2, 1), (7, 3))


def _suite_appendix(L, a, dprime, model_of) -> list[Check]:
    checks = []
    for p, ap in _APPENDIX_TOWERS:
        F = frobenius_extension(p, 3)
        main = model_of(F, ap)
        app = appendix_model(main)
        # equal equations and parametrization basis imply equal point sets
        same = (main.equations_over_k == app.equations_over_k
                and main.parametrization.basis == app.parametrization.basis)
        checks.append(_ok(f"p{p}-counts-equal", same, "models differ"))
        if p == 2:  # the pinned `appendix` emission has this check at p = 2 only
            checks.append(_ok(f"p{p}-point-sets-identical", same))
    return checks


_SUITE_RUNNERS = {
    "cocycle": _suite_cocycle,
    "split": _suite_split,
    "paper-eqs": _suite_paper_eqs,
    "picard": _suite_picard,
    "counts": _suite_counts,
    "algebra": _suite_algebra,
    "triviality": _suite_triviality,
    "appendix": _suite_appendix,
}


def run_all(L: CyclicExtension, a, suites: Sequence[str] = ALL_SUITES,
            dprime: int = 2) -> Report:
    """Run the named suites on the extension L and the scalar a; `dprime`
    is the Picard-generator degree the `picard` suite checks beside 1.
    The suites share one `surface_model` cache for the run."""
    for name in suites:
        if name not in _SUITE_RUNNERS:
            raise InputError(f"unknown suite {name!r}")
    if "picard" in suites:  # refused before the first suite runs
        check_dprime(dprime)
    a = L.base.coerce(a)
    model_of = functools.lru_cache(maxsize=None)(surface_model)
    checks: list[Check] = []
    for name in suites:
        for c in _SUITE_RUNNERS[name](L, a, dprime, model_of):
            checks.append(Check(f"{name}:{c.name}", c.status, c.witness))
    return Report("+".join(suites), tuple(checks))
