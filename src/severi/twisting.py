"""End-to-end constructions: Fermat family, twisted Veronese equations,
Galois descent to the base field, Brauer-Severi surface models, and the
Fermat-type Picard generators.

The splitting matrix M maps the model to the standard Veronese image, so
model points are M^{-1} (Veronese points) and model equations are the
ideal quadrics composed with M: Q(M w) = 0.  Descent to k is one row
reduction over k, of the theta-coordinates F_i of twisted quadrics
F = sum_i theta^i F_i.  The F_i span over L the same space as the
conjugates sigma^s(F), so the k-reduced basis of the F_i is the reduced
basis of the smallest sigma-stable L-space that holds the family: its
sigma-closure.  The lift rotates exponent sums in the plane variables, so
sigma carries the twisted quadrics of one exponent sum onto those of the
rotated sum, and the sigma-closure of one exponent-sum group per rotation
orbit (`orbit_representatives`) is the whole twisted ideal V when V is
sigma-stable; only those groups are twisted and descended.  A reduced row
echelon form is unique, so the result is V's reduced basis, entry for
entry.  `surface_model` proves that of each model it returns by
`image_defect`: when the twist is not sigma-stable, the sigma-closure is
not V, and the count or the vanishing clause fails.

The certificate's last clause, that every equation vanishes on P o Ver, is
decided in integers over k, with no substitution over L.  It is exact for
three reasons: each equation is F = sum c_ab w_a w_b with every c_ab in k
(an earlier clause); taking theta-coordinates is k-linear, so F(P Ver(x))
= 0 exactly when sum c_ab N_ab = 0 in every coordinate, where N_ab holds
the theta-coordinates of the product of coordinates a and b of P Ver(x),
keyed by x-monomial; and N_ab is kept as integer numerators over
denominators common to all pairs, which are positive and so change no
zero test.

Every pullback through P o Ver is one linear substitution, F(P w), with
each w-monomial relabelled as its plane monomial (`pullback_to_plane`).
The paper's displayed n = 2 relations are checked as products of their ten
pulled-back linear factors (`_displayed_relations`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .cohomology import cyclic_cocycle, lift_to_veronese, split_structured
from .errors import InputError, InternalDescentFailure, ZeroA
from .fields import (
    CyclicExtension,
    ExtElement,
    NormalBasis,
    Scalar,
    element_to_json,
    extension_to_json,
    find_normal_basis,
    row_reduce,
    scalar_to_json,
)
from .grammar import format_poly, omega_names, plane_names
from .linalg import Matrix, inverse, matrix_to_json
from .polyring import (
    Exponents,
    MultiPoly,
    family_support,
    poly_to_json,
    make_poly,
    substitute_linear,
    zero_poly,
)
from .veronese import (
    MonomialBasis,
    ParametrizationMap,
    canonical_embedding,
    ideal_quadric_count,
    monomial_basis,
    veronese_ideal,
)


@dataclass(frozen=True)
class FermatHypersurface:
    """sum_i a^{i d'} X_i^{(n+1)d'} = 0 in P^n."""

    n: int
    dprime: int
    a: Scalar
    poly: MultiPoly
    genus: Optional[int]  # (3d'-1)(3d'-2)/2 when n = 2, else None


def fermat(L: CyclicExtension, dprime: int, a) -> FermatHypersurface:
    """The diagonal hypersurface with coefficient a^{i d'} on X_i^{(n+1)d'}.

    Construction checks the defining invariance: substituting the cyclic
    map (a X_n, X_0, ..., X_{n-1}) multiplies the polynomial by a^{d'}.
    """
    check_dprime(dprime)
    a = L.base.coerce(a)
    if L.base.is_zero(a):
        raise ZeroA("a must be nonzero")
    n = L.degree - 1
    deg = (n + 1) * dprime
    terms = {}
    apow = L.base.one()
    step = L.base.coerce(a ** dprime)
    for i in range(n + 1):
        e = tuple(deg if j == i else 0 for j in range(n + 1))
        terms[e] = L.from_base(apow)
        apow = L.base.mul(apow, step)
    poly = make_poly(L, n + 1, terms)
    A_a = cyclic_cocycle(L, a).at_generator
    scaled = substitute_linear(poly, A_a)
    if scaled != poly * L.from_base(step):
        raise InternalDescentFailure("Fermat invariance identity failed")
    genus = (3 * dprime - 1) * (3 * dprime - 2) // 2 if n == 2 else None
    return FermatHypersurface(n, dprime, a, poly, genus)


@dataclass(frozen=True)
class SurfaceModel:
    """A Brauer-Severi variety model in P^{m-1} over the base field."""

    extension: CyclicExtension
    a: Scalar
    n: int
    m: int
    splitting_matrix: Matrix          # maps the model onto the Veronese image
    equations_over_k: tuple[MultiPoly, ...]
    parametrization: ParametrizationMap  # Ver_n, then inverse(splitting_matrix)
    provenance: str                   # "main_path" | "appendix_path"
    normal_basis: NormalBasis


def descend_to_base(L: CyclicExtension, family: Sequence[MultiPoly]
                    ) -> list[MultiPoly]:
    """The reduced row-echelon basis over k of the theta-coordinates of the
    family: the reduced basis of the sigma-closure of the family, the
    smallest sigma-stable L-space that holds it.

    Write each member as F = sum_i theta^i F_i with every F_i over k, and
    let W be the k-span of the F_i.  Each conjugate sigma^s(F) is
    sum_i sigma^s(theta)^i F_i, and the Vandermonde matrix of the
    conjugates of theta is invertible, so the F_i and the conjugates of F
    span the same L-space: L W is the sigma-closure of the family.  A
    k-basis of W is an L-basis of L W, and reduced row echelon forms are
    unique, so the result is the reduced basis of L W.  When the family's
    L-span V is sigma-stable that is V's reduced basis; `surface_model`
    descends only one exponent-sum group per rotation orbit, whose
    sigma-closure is the whole twisted ideal, and certifies each model by
    `image_defect`.  A member over another extension raises InputError.

    The rows handed to `row_reduce` are integers (`_coordinate_rows`), so
    over Q the reduction builds Fractions only for the rows it returns.
    """
    for F in family:
        if F.ext is not L and F.ext != L:
            raise InputError("family member is not over the given extension")
    support = family_support(family)
    family = [F for F in family if not F.is_zero()]
    if not family:
        return []
    R, _ = row_reduce(L.base, _coordinate_rows(L, family, support))
    nv = family[0].nvars
    return [MultiPoly(L, nv, tuple((support[j], L.from_base(c))
                                   for j, c in sorted(row.items())))
            for row in R]


def _coordinate_rows(L: CyclicExtension, family: Sequence[MultiPoly],
                     support: Sequence[Exponents]
                     ) -> list[list[tuple[int, int]]]:
    """The theta-coordinates F_i of every member, as rows of (column of
    `support`, nonzero entry) pairs with integer entries: each member is
    scaled by the lcm of its coefficients' denominators (1 over F_p), which
    leaves the k-span of its F_i, and so the reduced basis, unchanged."""
    col = {e: j for j, e in enumerate(support)}
    rows = []
    for F in family:
        d = math.lcm(*(c.den for _, c in F.terms))
        parts = [[] for _ in range(L.degree)]
        for e, c in F.terms:
            j, s = col[e], d // c.den
            for part, x in zip(parts, c.nums):
                if x:
                    part.append((j, x * s))
        rows.extend(parts)
    return rows


def vanishes_on_image(equations: Sequence[MultiPoly], basis: MonomialBasis,
                      P: Matrix) -> bool:
    """Whether every equation, a quadric with coefficients in k, vanishes on
    the image of P o Ver, decided exactly in integers (the module docstring
    says why this is exact).

    N_ab, the theta-coordinates of the product of coordinates a and b of
    P Ver(x) keyed by x-monomial, is computed once per call for each pair
    the equations use, from the integer coordinates (`nums` over `den`) of
    P's nonzero entries, brought to their common denominator, and the
    integer theta-power table.  Each equation's coefficients, integers
    over their own denominators, are brought to their lcm the same way,
    and sum c_ab N_ab is tested for zero, or for zero mod p over F_p (where
    every denominator is 1).
    """
    L = P.ext
    p = L.base.p
    deg = L.degree
    theta_rows, _ = L._int_theta_table
    width = 2 * deg - 1
    # an x-monomial of degree at most 2d as one integer in radix 2d + 1, so
    # the code of a product of two basis monomials is the sum of their codes
    radix = 2 * basis.degree + 1
    codes = [sum(k * radix ** i for i, k in enumerate(e)) for e in basis.list]
    denom = math.lcm(*(c.den for row in P.sparse_rows for _, c in row))
    # row i of P: (code of basis monomial j, nonzero (s, numerator of
    # theta^s)) for each nonzero entry P[i][j]
    rows = [[(codes[j], [(s, x * (denom // c.den))
                         for s, x in enumerate(c.nums) if x])
             for j, c in row] for row in P.sparse_rows]
    images: dict[Exponents, dict[int, int]] = {}

    def image(e: Exponents) -> dict[int, int]:
        img = images.get(e)
        if img is not None:
            return img
        a, b = (i for i, k in enumerate(e) for _ in range(k))  # w^e = w_a w_b
        conv: dict[int, int] = {}
        for code_a, xs in rows[a]:
            for code_b, ys in rows[b]:
                base = (code_a + code_b) * width
                for s, x in xs:
                    for t, y in ys:
                        key = base + s + t
                        conv[key] = conv.get(key, 0) + x * y
        out: dict[int, int] = {}
        for key, v in conv.items():
            code, power = divmod(key, width)
            for t, c in theta_rows[power]:
                slot = code * deg + t
                out[slot] = out.get(slot, 0) + v * c
        if p is not None:
            out = {slot: v % p for slot, v in out.items() if v % p}
        images[e] = out
        return out

    for F in equations:
        lcm = math.lcm(*(c.den for _, c in F.terms))
        cs = [c.nums[0] * (lcm // c.den) for _, c in F.terms]
        acc: dict[int, int] = {}
        for (e, _), c in zip(F.terms, cs):
            for slot, v in image(e).items():
                acc[slot] = acc.get(slot, 0) + c * v
        if any(v % p if p else v for v in acc.values()):
            return False
    return True


def image_defect(equations: Sequence[MultiPoly], basis: MonomialBasis,
                 P: Matrix) -> Optional[str]:
    """None when `equations` span the degree-2 part of the ideal of the
    image of P o Ver, for an invertible m x m matrix P; otherwise the first
    clause that fails.

    The clauses: as many equations as that part has dimensions, each a
    nonzero homogeneous quadric with coefficients in k, with pairwise
    distinct leading monomials (which proves them independent), and each
    vanishing on P o Ver.  Their pullbacks by P then span the degree-2
    ideal of the Veronese image, which cuts that image out.  P's
    invertibility is a premise, proved where P is built.

    The vanishing clause runs last, on quadrics already known to have
    coefficients in k, and is decided exactly in integers by
    `vanishes_on_image`: no floating point, no evaluation points.
    """
    expected = ideal_quadric_count(basis.n, basis.degree)
    if len(equations) != expected:
        return f"{len(equations)} equations, expected {expected}"
    if any(F.is_zero() or F.degree() != 2 or not F.is_homogeneous()
           for F in equations):
        return "every equation must be a nonzero homogeneous quadric"
    if not all(c.in_base() for F in equations for _, c in F.terms):
        return "model equation has non-k coefficient"
    if len({F.terms[0][0] for F in equations}) != len(equations):
        return "equations do not have distinct leading monomials"
    if not vanishes_on_image(equations, basis, P):
        return "model equation does not vanish on the parametrization"
    return None


def orbit_representatives(basis: MonomialBasis, quads: Sequence[MultiPoly]
                          ) -> list[MultiPoly]:
    """The quadrics whose exponent sum in the plane variables comes first in
    its orbit under cyclic shift of the n+1 entries, in the given order.

    Each quadric of `veronese_ideal` is a binomial in one group of pairs
    with equal exponent sum s = b_i + b_j, read here from its leading
    monomial w_i w_j.  The lift rotates exponent sums, so sigma carries the
    twisted group of s onto that of the rotated s, and the sigma-closure of
    one group per orbit is the whole twisted ideal (see `descend_to_base`).
    """
    first: dict[Exponents, Exponents] = {}
    out = []
    for Q in quads:
        e = Q.terms[0][0]
        s = tuple(sum(k * b[i] for k, b in zip(e, basis.list) if k)
                  for i in range(basis.n + 1))
        orbit = min(s[t:] + s[:t] for t in range(len(s)))
        if first.setdefault(orbit, s) == s:
            out.append(Q)
    return out


# n = 4 is refused: the k-reduction of its 1420 orbit representatives,
# 7100 sparse rows on 8001 columns, takes about a minute, and the whole run
# peaks near 0.5 GB RSS over F_{2^5} (README, "n = 4 by hand")
SURFACE_MAX_N = 3

# d' above 8 is refused: the cost of the `picard` suite grows steeply in the
# plane degree (n+1) d'.  Measured with `severi verify --suite picard` on a
# 2-core machine, CPython 3.11: over Q(zeta_5) at n = 3 and a = 5, d' = 8
# takes 3.2 s, 10 takes 9.3 s and 12 takes 28.5 s; over the Shanks cubic
# t = 1, d' = 8 takes 0.4 s, 12 takes 1.2 s and 16 takes 4.5 s.  Over F_7 at
# a = 3, `severi picard --dprime 100000` had not returned after 70 s.
PICARD_MAX_DPRIME = 8


def check_dprime(dprime: int) -> None:
    if dprime < 1:
        raise InputError("d' must be >= 1")
    if dprime > PICARD_MAX_DPRIME:  # refused before any work
        raise InputError(f"d' = {dprime} is out of reach: Picard generators "
                         f"go up to d' = {PICARD_MAX_DPRIME}")


def surface_model(L: CyclicExtension, a) -> SurfaceModel:
    """Main pipeline: companion cocycle, Veronese lift, structured split on
    the normal basis `find_normal_basis(L)`, twisted ideal quadrics, descent
    to the base field; the model is certified by `image_defect` before it
    is returned.  Every later step takes the model and reads L, a, the
    normal basis and P = M^{-1} from it."""
    n = L.degree - 1
    if n > SURFACE_MAX_N:  # refused before any work
        raise InputError(f"n = {n} is out of reach: its model has "
                         f"{ideal_quadric_count(n, n + 1)} quadrics; "
                         f"surface models go up to n = {SURFACE_MAX_N}")
    a = L.base.coerce(a)
    basis = monomial_basis(n, n + 1)
    xi = cyclic_cocycle(L, a)
    lifted = lift_to_veronese(xi)
    nb = find_normal_basis(L)
    M = split_structured(lifted, nb)
    P = inverse(M)  # the one proof that M is invertible: Singular if not
    quads = orbit_representatives(basis, veronese_ideal(basis, L))
    twisted = [substitute_linear(Q, M) for Q in quads]
    equations = tuple(descend_to_base(L, twisted))
    defect = image_defect(equations, basis, P)
    if defect is not None:
        raise InternalDescentFailure(defect)
    return SurfaceModel(L, a, n, basis.m, M, equations,
                        ParametrizationMap(basis, P), "main_path", nb)


def appendix_model(model: SurfaceModel) -> SurfaceModel:
    """The route through the degree-6 plane curve (d' = 2): its canonical
    embedding is the degree-3 Veronese on P^2, so the model is the given
    main model, relabelled with appendix provenance.  The genus bookkeeping
    and that identity of embeddings are checked."""
    if model.n != 2:
        raise InputError("the appendix path requires a degree-3 extension (n = 2)")
    dprime = 2
    curve = fermat(model.extension, dprime, model.a)
    basis = canonical_embedding(3 * dprime)
    if basis.m != curve.genus:
        raise InternalDescentFailure("canonical basis size differs from the genus")
    if basis != model.parametrization.basis:
        raise InternalDescentFailure("canonical embedding is not the degree-3 Veronese")
    return replace(model, provenance="appendix_path")


@dataclass(frozen=True)
class PicardGenerator:
    dprime: int
    equation: MultiPoly        # over k, homogeneous of degree d' in the w's
    degree_in_plane: int       # (n+1) d'


def picard_generator(L: CyclicExtension, a, dprime: int) -> PicardGenerator:
    """sum_i (sum_j l_{i+j} w_{X_j^{n+1}})^{d'}, the twisted Fermat form in
    the pure-power Veronese coordinates; its coefficients land in k.

    The normal basis l_1, ..., l_{n+1} fixes those coordinates; it is
    `find_normal_basis(L)`, the basis every model is built on."""
    check_dprime(dprime)
    if L.base.is_zero(L.base.coerce(a)):
        raise ZeroA("a must be nonzero")
    n = L.degree - 1
    nb = find_normal_basis(L)
    basis = monomial_basis(n, n + 1)
    pure = basis.pure_power_indices()
    m = basis.m
    total = zero_poly(L, m)
    for i in range(n + 1):
        form = zero_poly(L, m)
        for j in range(n + 1):
            e = tuple(1 if t == pure[j] else 0 for t in range(m))
            form = form + make_poly(L, m, {e: nb.elements[(i + j) % (n + 1)]})
        total = total + form ** dprime
    for _, c in total.terms:
        if not c.in_base():
            raise InternalDescentFailure("Picard generator has non-k coefficient")
    return PicardGenerator(dprime, total, (n + 1) * dprime)


def pullback_to_plane(model: SurfaceModel, F: MultiPoly) -> MultiPoly:
    """F composed with the parametrization P o Ver, as a polynomial in the
    plane variables.

    F(P Ver(x)) = G(Ver(x)) with G(w) = F(P w), and coordinate j of Ver(x)
    is the bare basis monomial x^{b_j}.  So each term c w^e of G becomes
    c x^{sum_j e_j b_j}, and terms that land on one monomial are summed.
    """
    basis, n1 = model.parametrization.basis, model.n + 1
    G = substitute_linear(F, model.parametrization.matrix)
    return make_poly(model.extension, n1, [
        ([sum(k * basis.list[j][i] for j, k in enumerate(e)) for i in range(n1)], c)
        for e, c in G.terms])


def proportional(F: MultiPoly, G: MultiPoly) -> Optional[ExtElement]:
    """The scalar c with F = c G, if it exists and is nonzero."""
    if F.is_zero() or G.is_zero():
        return None
    if len(F.terms) != len(G.terms):
        return None
    c: Optional[ExtElement] = None
    gd = G.terms_dict()
    for e, cf in F.terms:
        cg = gd.get(e)
        if cg is None:
            return None
        ratio = cf / cg
        if c is None:
            c = ratio
        elif ratio != c:
            return None
    return c


# ---------------------------------------------------------------------------
# the displayed n = 2 equation system
# ---------------------------------------------------------------------------

def _omega_form(L: CyclicExtension, labels: Sequence[ExtElement],
                cols: Sequence[int]) -> MultiPoly:
    m = 10
    terms = {}
    for lab, c in zip(labels, cols):
        e = tuple(1 if t == c else 0 for t in range(m))
        terms[e] = lab
    return make_poly(L, m, terms)


def _displayed_forms(L: CyclicExtension, nb: NormalBasis) -> list[MultiPoly]:
    """The ten linear factors F1, ..., F9, w4 of the displayed system, as
    forms in w0, ..., w9."""
    if L.degree != 3:
        raise InputError("the displayed system is for n = 2")
    l1, l2, l3 = nb.elements
    order1, order2, order3 = (l1, l2, l3), (l3, l1, l2), (l2, l3, l1)
    return [
        _omega_form(L, order1, (0, 6, 9)),  # F1
        _omega_form(L, order2, (0, 6, 9)),  # F2
        _omega_form(L, order2, (1, 5, 7)),  # F3
        _omega_form(L, order1, (1, 5, 7)),  # F4
        _omega_form(L, order2, (2, 3, 8)),  # F5
        _omega_form(L, order1, (2, 3, 8)),  # F6
        _omega_form(L, order3, (2, 3, 8)),  # F7
        _omega_form(L, order3, (0, 6, 9)),  # F8
        _omega_form(L, order3, (1, 5, 7)),  # F9
        _omega_form(L, (L.one(),), (4,)),   # w4
    ]


def _displayed_relations(forms: Sequence[MultiPoly], a_el: ExtElement
                         ) -> list[tuple[str, MultiPoly]]:
    """The seven displayed relations, each left side minus right side, as
    products of the given factors F1, ..., F9, w4.

    Called on the forms themselves this gives the relations in the
    w-coordinates.  Substitution is a ring homomorphism, so called on the
    forms pulled back through a parametrization phi it gives exactly the
    residuals phi(relation): phi(F1 F2^2 a^2 - F3^3) = phi(F1) phi(F2)^2 a^2
    - phi(F3)^3, and no relation is expanded in the ten w-coordinates.
    """
    F1, F2, F3, F4, F5, F6, F7, F8, F9, w4 = forms
    F22 = F2 * F2
    return [
        ("equation-1", F1 * F22 * a_el * a_el - F3 ** 3),
        ("equation-2", F4 * F22 * a_el - F3 * F3 * F5),
        ("equation-3", F6 * F22 * a_el - F3 * F3 * F2),
        ("equation-4", F7 * F22 * a_el - F3 * F5 * F5),
        ("equation-5", w4 * F22 - F3 * F5 * F2),
        ("equation-6", F8 * F22 * a_el - F5 ** 3),
        ("equation-7", F9 * F22 - F5 ** 3 * F2),
    ]


def _equation7_reconstruction(forms: Sequence[MultiPoly]) -> MultiPoly:
    """The seventh relation with its cube lowered to a square, as a product
    of the given factors, like `_displayed_relations`."""
    F2, F5, F9 = forms[1], forms[4], forms[8]
    return F9 * F2 * F2 - F5 * F5 * F2


def verify_theorem1_equations(model: SurfaceModel) -> list[dict]:
    """Substitute the model's parametrization into each displayed relation,
    written on the model's normal basis, and report pass, fail, or flagged
    per equation.  The seventh relation mixes degrees 3 and 4 and is
    reported as printed, with the residual and a homogeneous
    reconstruction: flagged when the reconstruction vanishes, failed when
    it does not.

    Only the ten linear factors are pulled back, one `pullback_to_plane`
    each; each residual is then the same product of the pulled-back factors
    (`_displayed_relations`), which is exact because substitution is a ring
    homomorphism.  The splitting matrix is invertible, so the
    parametrization sends each nonzero linear form to a nonzero cubic form,
    and a product of d of them to a nonzero form of degree 3d: a relation
    is homogeneous in the w's exactly when its residual is homogeneous in
    the plane variables.
    """
    L = model.extension
    forms = _displayed_forms(L, model.normal_basis)
    pulled = [pullback_to_plane(model, F) for F in forms]
    a_el = L.from_base(model.a)
    report = []
    for name, residual in _displayed_relations(pulled, a_el):
        homogeneous = residual.is_homogeneous()
        entry: dict = {"name": name, "homogeneous": homogeneous}
        if not homogeneous:
            recon = _equation7_reconstruction(forms)
            vanishes = _equation7_reconstruction(pulled).is_zero()
            entry["status"] = "flagged" if vanishes else "fail"
            entry["note"] = "degree-inhomogeneous as printed (3 vs 4)"
            entry["residual"] = format_poly(residual, plane_names(2))
            entry["reconstruction"] = format_poly(recon, omega_names(10))
            entry["reconstruction_vanishes"] = vanishes
        elif residual.is_zero():
            entry["status"] = "pass"
        else:
            entry["status"] = "fail"
            entry["residual"] = format_poly(residual, plane_names(2))
        report.append(entry)
    return report


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def model_to_json(model: SurfaceModel) -> dict:
    return {
        "schema": 1,
        "kind": "surface_model",
        "field": extension_to_json(model.extension),
        "a": scalar_to_json(model.a),
        "n": model.n,
        "m": model.m,
        "provenance": model.provenance,
        "veronese_degree": model.parametrization.basis.degree,
        "normal_basis": [element_to_json(e) for e in model.normal_basis.elements],
        "splitting_matrix": matrix_to_json(model.splitting_matrix),
        "equations_over_k": [poly_to_json(F) for F in model.equations_over_k],
    }


def picard_to_json(g: PicardGenerator, L: CyclicExtension) -> dict:
    return {
        "schema": 1,
        "kind": "picard_generator",
        "field": extension_to_json(L),
        "dprime": g.dprime,
        "degree_in_plane": g.degree_in_plane,
        "nvars": g.equation.nvars,
        "equation": poly_to_json(g.equation),
    }
