"""An independent count of a model's points, used only by the tests.

Every monic representative of P^{m-1}(F_p) is tested against every model
equation, vectorised with numpy.  It shares nothing with
`verify.rational_points` beyond reading the equations mod p, so the two
agreeing is evidence for both.
"""
import itertools

import numpy as np

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
