"""Symbolic oracles for substitution and the model certificate, used only by
the tests.

`naive_substitute` expands a polynomial term by term by polynomial
arithmetic, `linear_forms` writes the rows of a matrix as linear forms, and
`plane_coordinates` builds the coordinates of P o Ver as sums of basis
monomials.  None of them goes through `polyring.substitute_linear`,
`twisting.pullback_to_plane` or `twisting.vanishes_on_image`, so agreeing
with them is evidence for both sides.

`evaluate`, `galois_poly`, `span_equal` and `in_span` are the point
evaluation, the coefficientwise Galois action and the span comparisons the
tests state their expectations in; the program itself needs none of them.
"""
from severi.fields import galois_apply
from severi.polyring import (MultiPoly, constant, make_poly, monomial,
                             span_reduce, variables, zero_poly)


def naive_substitute(F, polys, images=None):
    """F with variable i replaced by polys[i], term by term: the image of
    x^e is the image of x^(e - e_i) times polys[i], for the first variable
    x_i of x^e, and the terms of c times it are collected in one sum.  A
    dict passed as `images` keeps the monomial images for later calls with
    the same polys."""
    ext, nv = polys[0].ext, polys[0].nvars
    images = {} if images is None else images

    def image(e):
        img = images.get(e)
        if img is None:
            i = next((i for i, k in enumerate(e) if k), None)
            if i is None:
                img = constant(ext, nv, ext.one())
            else:
                img = image(e[:i] + (e[i] - 1,) + e[i + 1:]) * polys[i]
            images[e] = img
        return img

    return make_poly(ext, nv, [(t, v * c) for e, c in F.terms
                               for t, v in image(e).terms])


def linear_forms(A):
    """Row i of the square matrix A as the linear form sum_j A[i][j] x_j."""
    xs = variables(A.ext, A.cols)
    forms = []
    for row in A.as_rows():
        form = zero_poly(A.ext, A.cols)
        for j in range(A.cols):
            form = form + xs[j] * row[j]
        forms.append(form)
    return forms


def plane_coordinates(basis, P):
    """Coordinate i of P o Ver in the plane variables: sum_j P[i][j] times
    basis monomial j."""
    ext, nv = P.ext, basis.n + 1
    monos = [monomial(ext, b) for b in basis.list]
    coords = []
    for row in P.as_rows():
        acc = zero_poly(ext, nv)
        for j, mono in enumerate(monos):
            acc = acc + mono * row[j]
        coords.append(acc)
    return coords


def parametrization_residuals(equations, basis, P):
    """Each equation composed with P o Ver; all are zero exactly when the
    equations vanish on its image."""
    coords = plane_coordinates(basis, P)
    images = {}
    return [naive_substitute(F, coords, images) for F in equations]


def evaluate(F, point):
    """F at a point of base-field or extension values."""
    ext = F.ext
    pt = [x if hasattr(x, "coeffs") else ext.from_base(x) for x in point]
    acc = ext.zero()
    for e, c in F.terms:
        for x, k in zip(pt, e):
            c = c * x ** k
        acc = acc + c
    return acc


def galois_poly(L, F, j):
    """sigma^j applied to every coefficient of F."""
    return MultiPoly(F.ext, F.nvars,
                     tuple((e, galois_apply(L, c, j)) for e, c in F.terms))


def span_equal(S1, S2):
    """Whether two families span the same space over L: their reduced
    row-echelon bases (`span_reduce`) are equal."""
    return span_reduce(list(S1)) == span_reduce(list(S2))


def in_span(F, S):
    """Whether F lies in the L-span of S."""
    base = span_reduce(list(S))
    return F.is_zero() or span_reduce(base + [F]) == base
