"""Independent references for a model's points and Jacobian, used only by
the tests.

Every monic representative of P^{m-1}(F_p) is tested against every model
equation, vectorised with numpy.  It shares nothing with
`verify.rational_points` beyond reading the equations mod p, so the two
agreeing is evidence for both.

`jacobian` differentiates a polynomial term by term, and `jacobian_ranks`
evaluates those partials at each point; `verify.smoothness_spot` reads the
Jacobian of a quadric off its terms instead, and the tests compare the two.
"""
import itertools
from math import prod

import numpy as np

from severi.fields import GF, row_reduce
from severi.polyring import make_poly
from severi.verify import _int_polys, _require_prime_model

MAX_TUPLES = 3 ** 10  # P^9(F_3), the largest space enumerated


def solve_points_exhaustive(model, p):
    """All F_p-points of the model, by enumerating the monic representatives
    of P^{m-1}(F_p)."""
    _require_prime_model(model, p)
    m = model.m
    assert p ** m <= MAX_TUPLES, f"{p}^{m} tuples, over the cap of {MAX_TUPLES}"
    arr = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    nonzero = arr.any(axis=1)
    first = (arr != 0).argmax(axis=1)
    lead = arr[np.arange(len(arr)), first]
    arr = arr[nonzero & (lead == 1)]
    keep = np.ones(len(arr), dtype=bool)
    for eq in _int_polys(model.equations_over_k, p):
        acc = np.zeros(len(arr), dtype=np.int64)
        for e, c in eq:
            t = np.full(len(arr), c, dtype=np.int64)
            for i, k in enumerate(e):
                if k:
                    t = t * arr[:, i] ** k
            acc = (acc + t) % p
        keep &= acc == 0
    return sorted(tuple(int(v) for v in row) for row in arr[keep])


def jacobian(F):
    """The partial derivatives of F, one per variable."""
    out = []
    for i in range(F.nvars):
        acc = {}
        for e, c in F.terms:
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            acc[tuple(de)] = c * F.ext.from_base(e[i])
        out.append(make_poly(F.ext, F.nvars, acc))
    return tuple(out)


def jacobian_ranks(equations, points, p):
    """Rank mod p of the Jacobian of `equations` at each of `points`,
    without the column of the point's first nonzero coordinate, from the
    partials evaluated there."""
    partials = [_int_polys(jacobian(F), p) for F in equations]
    ranks = []
    for pt in points:
        fi = next(i for i, v in enumerate(pt) if v % p)
        rows = [[(j, sum(c * prod(pow(x, k, p) for x, k in zip(pt, e))
                         for e, c in dF) % p)
                 for j, dF in enumerate(row) if j != fi]
                for row in partials]
        ranks.append(len(row_reduce(GF(p), rows)[1]))
    return ranks
