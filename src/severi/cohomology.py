"""1-cocycles of a cyclic Galois group with matrix values, and their splits.

A cocycle of Gal(L/k) = <sigma> is stored by its value at sigma.  The
twisted product xi(sigma) * sigma(xi(sigma)) * ... * sigma^n(xi(sigma))
is a scalar matrix; the cocycle is honest when that scalar is 1, and only
honest cocycles split as xi(sigma) = M * sigma(M)^{-1}.

The structured split writes the split of a monomial cocycle down on a
normal basis; every certified path uses it, for the Veronese lift (the
classical 10x10 matrix for n = 2, entry for entry) and for the companion
value divided by a norm witness.  The randomized averaging split (Hilbert
90 made constructive) is the `split` suite's independent reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    AllAttemptsSingular,
    InputError,
    InternalDescentFailure,
    NotAWitness,
    NotHonestCocycle,
    NotMonomialCocycle,
    ShapeMismatch,
    ZeroA,
)
from .fields import (CyclicExtension, ExtElement, find_normal_basis,
                     galois_apply, norm)
from .linalg import (
    Matrix,
    as_scaled_permutation,
    from_rows,
    galois_matrix,
    identity,
    mul,
    rank,
    zeros,
)
from .veronese import induced_matrix, monomial_basis


@dataclass(frozen=True)
class Cocycle:
    extension: CyclicExtension
    size: int
    at_generator: Matrix
    scalar_class: ExtElement


def make_cocycle(L: CyclicExtension, A: Matrix) -> Cocycle:
    """Validate that the twisted (n+1)-fold product of A is scalar and wrap."""
    if A.rows != A.cols:
        raise ShapeMismatch("cocycle values must be square")
    if A.ext != L:
        raise InputError("matrix is not over the given extension")
    T = identity(L, A.rows)
    for j in range(L.degree):
        T = mul(T, galois_matrix(L, A, j))
    c = T.at(0, 0)
    if c.is_zero():
        raise InputError("cocycle value is singular")
    if T != identity(L, A.rows).scale(c):
        raise InputError("twisted product is not a scalar matrix")
    return Cocycle(L, A.rows, A, c)


def cocycle_value(xi: Cocycle, j: int) -> Matrix:
    """xi(sigma^j) = xi(sigma) * sigma(xi(sigma)) * ... * sigma^{j-1}(xi(sigma))."""
    L = xi.extension
    out = identity(L, xi.size)
    for i in range(j):
        out = mul(out, galois_matrix(L, xi.at_generator, i))
    return out


def cyclic_cocycle(L: CyclicExtension, a) -> Cocycle:
    """Companion-style value at sigma: a in the top-right corner, 1 on the
    subdiagonal; its twisted product is a * I."""
    a = L.base.coerce(a)
    if L.base.is_zero(a):
        raise ZeroA("a must be nonzero")
    n1 = L.degree
    rows = [[0] * n1 for _ in range(n1)]
    rows[0][n1 - 1] = a
    for i in range(1, n1):
        rows[i][i - 1] = 1
    xi = make_cocycle(L, from_rows(L, rows))
    if xi.scalar_class != L.from_base(a):
        raise InternalDescentFailure("companion twisted product is not a * I")
    return xi


def lift_to_veronese(xi: Cocycle) -> Cocycle:
    """Induced cocycle on the degree-(n+1) monomial basis, divided by the
    scalar class so the lift is honest (twisted product exactly I)."""
    L = xi.extension
    if any(not e.in_base() for e in xi.at_generator.entries):
        raise InputError("lift requires cocycle entries in the base field")
    n = L.degree - 1
    basis = monomial_basis(n, n + 1)
    B = induced_matrix(basis, xi.at_generator).scale(xi.scalar_class.inverse())
    lifted = make_cocycle(L, B)
    if lifted.scalar_class != L.one():
        raise InternalDescentFailure("normalized lift is not honest")
    return lifted


def _random_matrix(L: CyclicExtension, size: int, rng: random.Random) -> Matrix:
    if L.base.p is None:
        coords = lambda: rng.randint(-3, 3)
    else:
        coords = lambda: rng.randrange(L.base.p)
    rows = [[L.el([coords() for _ in range(L.degree)]) for _ in range(size)]
            for _ in range(size)]
    return from_rows(L, rows)


def check_split(xi: Cocycle, M: Matrix) -> None:
    """Assert xi(sigma) * sigma(M) = M exactly."""
    L = xi.extension
    if mul(xi.at_generator, galois_matrix(L, M, 1)) != M:
        raise InternalDescentFailure("splitting residual is nonzero")


# pseudo-random trial matrices tried by split_generic
_SPLIT_ATTEMPTS = 32


def split_generic(xi: Cocycle, rng_seed: int = 0) -> Matrix:
    """Averaging split: M = sum_j xi(sigma^j) sigma^j(R) for pseudo-random R,
    retried until invertible.  Requires an honest cocycle."""
    L = xi.extension
    if xi.scalar_class != L.one():
        raise NotHonestCocycle(
            f"scalar class {xi.scalar_class!r} != 1; normalize before splitting")
    values = [cocycle_value(xi, j) for j in range(L.degree)]
    rng = random.Random(rng_seed)
    for _ in range(_SPLIT_ATTEMPTS):
        R = _random_matrix(L, xi.size, rng)
        M = zeros(L, xi.size, xi.size)
        for j in range(L.degree):
            M = M + mul(values[j], galois_matrix(L, R, j))
        if rank(M) == M.rows:
            check_split(xi, M)
            return M
    raise AllAttemptsSingular(
        f"all {_SPLIT_ATTEMPTS} averaging attempts were singular (seed {rng_seed})")


def split_structured(xi: Cocycle, nb) -> Matrix:
    """Deterministic split for a monomial (scaled-permutation) cocycle.

    Writing the value as A e_j = s_{pi(j)} e_{pi(j)}, the split condition
    xi * sigma(M) = M forces M[pi(i)] = s_{pi(i)} * sigma(M[i]), so rows
    propagate along pi-orbits from one free row each.  The free row of an
    orbit sits at its smallest index j0 and places normal-basis labels on
    the orbit's columns in ascending order, scaled by s_{j0}; an orbit of
    size d < n+1 uses the coset sums l_{1+t} + l_{1+t+d} + ... instead,
    which live in the fixed field of sigma^d.  Fixed columns get the entry 1.

    The orbit closes when the condition holds at j0 too,
    s_{j0} * sigma(M[last]) = M[j0], else NotMonomialCocycle.  For scales in
    k that says their product is 1, the free row being sigma^d-fixed; a full
    orbit of an honest cocycle, such as A_sigma / lam, always closes.
    """
    L = xi.extension
    if nb.extension != L:
        raise InputError("normal basis is over a different extension")
    sp = as_scaled_permutation(xi.at_generator)
    if sp is None:
        raise NotMonomialCocycle("cocycle value is not a scaled permutation")
    if xi.scalar_class != L.one():
        raise NotHonestCocycle("structured split requires an honest cocycle")
    n1 = L.degree
    size = xi.size
    perm, scales = sp.perm, sp.scales

    seen = [False] * size
    orbits: list[list[int]] = []
    for j in range(size):
        if seen[j]:
            continue
        orbit = []
        cur = j
        while not seen[cur]:
            seen[cur] = True
            orbit.append(cur)
            cur = perm[cur]
        orbits.append(orbit)

    rows: list[list[ExtElement] | None] = [None] * size
    zero = L.zero()
    for orbit in orbits:
        d = len(orbit)
        if n1 % d != 0:
            raise NotMonomialCocycle(
                f"orbit size {d} does not divide the Galois order {n1}")
        j0 = min(orbit)
        cols = sorted(orbit)
        row = [zero] * size
        if d == 1:
            row[j0] = L.one()
        else:
            labels = []
            for t in range(d):
                s = L.zero()
                for rep in range(n1 // d):
                    s = s + nb.elements[(t + rep * d) % n1]
                labels.append(s)
            for t, c in enumerate(cols):
                row[c] = scales[j0] * labels[t]
        rows[j0] = row
        cur = j0
        for _ in range(d - 1):
            nxt = perm[cur]
            rows[nxt] = [scales[nxt] * galois_apply(L, x, 1) for x in rows[cur]]
            cur = nxt
        if [scales[j0] * galois_apply(L, x, 1) for x in rows[cur]] != row:
            raise NotMonomialCocycle(
                "orbit rows do not close; no structured row exists")

    M = from_rows(L, rows)  # type: ignore[arg-type]
    if rank(M) < M.rows:
        raise InternalDescentFailure("structured split produced a singular matrix")
    check_split(xi, M)
    return M


def coboundary_from_witness(L: CyclicExtension, a, lam: ExtElement) -> Matrix:
    """P with A_sigma * sigma(P) = lam * P, where A_sigma is the companion
    cocycle value for a and norm(lam) = a.

    A_sigma / lam is an honest cocycle (twisted product a / norm(lam) = 1)
    with one orbit, and P is its structured split, whose own check is the
    identity above: A_sigma = lam * P * sigma(P)^{-1} in PGL_{n+1}(L).
    """
    a = L.base.coerce(a)
    if norm(L, lam) != a:
        raise NotAWitness(f"norm of the witness is {norm(L, lam)}, not {a}")
    A = cyclic_cocycle(L, a).at_generator
    return split_structured(make_cocycle(L, A.scale(lam.inverse())),
                            find_normal_basis(L))


def witness_split_scalar(L: CyclicExtension, lam: ExtElement) -> ExtElement:
    """s = prod_j sigma^j(lam)^{n-j}; satisfies s / sigma(s) = lam^{n+1}/norm(lam)."""
    n = L.degree - 1
    s = L.one()
    for j in range(n + 1):
        s = s * galois_apply(L, lam, j) ** (n - j)
    return s
