"""1-cocycles of a cyclic Galois group with matrix values, and their splits.

A cocycle of Gal(L/k) = <sigma> is stored by its value at sigma and by
its values xi(sigma^j) = xi(sigma) * sigma(xi(sigma)) * ... *
sigma^{j-1}(xi(sigma)) for j = 0..n.  The twisted product xi(sigma^{n+1})
is a scalar matrix; the cocycle is honest when that scalar is 1, and only
honest cocycles split as xi(sigma) = M * sigma(M)^{-1}.

Both splits are Hilbert 90's average M = sum_j xi(sigma^j) sigma^j(R),
which splits an honest cocycle whenever it is invertible.  The structured
split averages a matrix R written down on a normal basis; every certified
path uses it, for the Veronese lift (the classical 10x10 matrix for n = 2,
entry for entry) and for the companion value divided by a norm witness.
The randomized split averages pseudo-random R and is the `split` suite's
independent reference.

Invertibility is proven over k, by Galois descent.  For an honest cocycle
V = {v in L^m : xi(sigma) sigma(v) = v} is a k-form of L^m: L (x)_k V -> L^m
is an isomorphism (Hilbert 90; Gille-Szamuely, Central Simple Algebras and
Galois Cohomology, ch. 2).  A matrix that passes `check_split` has its
columns in V, so it is invertible over L exactly when its m columns are
linearly independent over k, which `k_rank` decides by one rank over k
of their theta-coordinates.
"""

from __future__ import annotations

import math
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
                     galois_apply, norm, rank)
from .linalg import (
    Matrix,
    as_scaled_permutation,
    galois_matrix,
    identity,
    mul,
)
from .veronese import induced_matrix, monomial_basis


@dataclass(frozen=True)
class Cocycle:
    extension: CyclicExtension
    size: int
    at_generator: Matrix
    scalar_class: ExtElement
    values: tuple[Matrix, ...]  # xi(sigma^j) for j = 0..n


def make_cocycle(L: CyclicExtension, A: Matrix) -> Cocycle:
    """Validate that the twisted (n+1)-fold product of A is scalar and wrap."""
    if A.rows != A.cols:
        raise ShapeMismatch("cocycle values must be square")
    if A.ext != L:
        raise InputError("matrix is not over the given extension")
    values = [identity(L, A.rows)]
    for j in range(L.degree):
        values.append(mul(values[j], galois_matrix(L, A, j)))
    T = values.pop()
    c = dict(T.sparse_rows[0]).get(0, L.zero())
    if c.is_zero():
        raise InputError("cocycle value is singular")
    if T != identity(L, A.rows).scale(c):
        raise InputError("twisted product is not a scalar matrix")
    return Cocycle(L, A.rows, A, c, tuple(values))


def cyclic_cocycle(L: CyclicExtension, a) -> Cocycle:
    """Companion-style value at sigma: a in the top-right corner, 1 on the
    subdiagonal; its twisted product is a * I."""
    a = L.base.coerce(a)
    if L.base.is_zero(a):
        raise ZeroA("a must be nonzero")
    n1 = L.degree
    rows = [((n1 - 1, L.from_base(a)),)] + [((i - 1, L.one()),) for i in range(1, n1)]
    xi = make_cocycle(L, Matrix(L, n1, tuple(rows)))
    if xi.scalar_class != L.from_base(a):
        raise InternalDescentFailure("companion twisted product is not a * I")
    return xi


def lift_to_veronese(xi: Cocycle) -> Cocycle:
    """Induced cocycle on the degree-(n+1) monomial basis, divided by the
    scalar class so the lift is honest (twisted product exactly I)."""
    L = xi.extension
    if any(not e.in_base() for row in xi.at_generator.sparse_rows for _, e in row):
        raise InputError("lift requires cocycle entries in the base field")
    n = L.degree - 1
    basis = monomial_basis(n, n + 1)
    B = induced_matrix(basis, xi.at_generator).scale(xi.scalar_class.inverse())
    lifted = make_cocycle(L, B)
    if lifted.scalar_class != L.one():
        raise InternalDescentFailure("normalized lift is not honest")
    return lifted


def _random_matrix(L: CyclicExtension, size: int, rng: random.Random) -> Matrix:
    """Entries with integer coordinates, in -3..3 over Q and residues over
    F_p, built in normal form over the denominator 1."""
    if L.base.p is None:
        coords = lambda: rng.randint(-3, 3)
    else:
        coords = lambda: rng.randrange(L.base.p)
    return Matrix(L, size, tuple(
        [(j, ExtElement(L, tuple([coords() for _ in range(L.degree)]), 1))
         for j in range(size)] for _ in range(size)))


def k_rank(*matrices: Matrix) -> int:
    """The k-rank of the columns of `matrices`, all over one L, taken
    together.  Each column is one row of its theta-coordinates, coordinate t
    of entry r in column r * (n+1) + t, scaled by the lcm of its entries'
    denominators (1 over F_p) so that its entries are integers, which
    leaves its k-span unchanged; `fields.rank` counts their rank over k,
    row by row, with no reduced form built.

    For columns of splits of one honest cocycle this is their rank over L
    (module docstring)."""
    L = matrices[0].ext
    deg = L.degree
    rows = []
    for M in matrices:
        if M.ext != L:
            raise InputError("matrices are over different extensions")
        cols: list[list[tuple[int, ExtElement]]] = [[] for _ in range(M.cols)]
        for r, row in enumerate(M.sparse_rows):
            for c, x in row:
                cols[c].append((r, x))
        for col in cols:
            d = math.lcm(*(x.den for _, x in col))
            rows.append([(r * deg + t, v * (d // x.den))
                         for r, x in col for t, v in enumerate(x.nums) if v])
    return rank(L.base, rows)


def check_split(xi: Cocycle, M: Matrix) -> None:
    """Assert xi(sigma) * sigma(M) = M exactly."""
    L = xi.extension
    if mul(xi.at_generator, galois_matrix(L, M, 1)) != M:
        raise InternalDescentFailure("splitting residual is nonzero")


def _average(xi: Cocycle, R: Matrix) -> Matrix:
    """Hilbert 90's average sum_j xi(sigma^j) sigma^j(R), j = 0..n.  For an
    honest cocycle it satisfies xi(sigma) sigma(M) = M, because the sum
    is the same after the shift j -> j + 1 when xi(sigma^{n+1}) = I.

    Row i of M sums, over j, the nonzero entries v of row i of xi(sigma^j)
    times the rows of sigma^j(R) they select."""
    L = xi.extension
    acc: list[dict[int, ExtElement]] = [{} for _ in range(xi.size)]
    for j, value in enumerate(xi.values):
        conj = galois_matrix(L, R, j).sparse_rows
        for out, row in zip(acc, value.sparse_rows):
            for t, v in row:
                for k, r in conj[t]:
                    cur = out.get(k)
                    out[k] = v * r if cur is None else cur + v * r
    return Matrix(L, R.cols, tuple(out.items() for out in acc))


# pseudo-random trial matrices tried by split_generic
_SPLIT_ATTEMPTS = 32


def split_generic(xi: Cocycle, rng_seed: int = 0) -> Matrix:
    """The average of pseudo-random R, retried until invertible.  Requires
    an honest cocycle.  Each average passes `check_split`, so its k-rank is
    its rank over L (module docstring): an average is invertible when its
    columns are independent over k."""
    L = xi.extension
    if xi.scalar_class != L.one():
        raise NotHonestCocycle(
            f"scalar class {xi.scalar_class!r} != 1; normalize before splitting")
    rng = random.Random(rng_seed)
    for _ in range(_SPLIT_ATTEMPTS):
        M = _average(xi, _random_matrix(L, xi.size, rng))
        check_split(xi, M)
        if k_rank(M) == M.rows:
            return M
    raise AllAttemptsSingular(
        f"all {_SPLIT_ATTEMPTS} averaging attempts were singular (seed {rng_seed})")


def split_structured(xi: Cocycle, nb) -> Matrix:
    """The average of a structured R, for a monomial (scaled-permutation)
    cocycle A e_j = s_{pi(j)} e_{pi(j)}, on the normal basis l_1, ..., l_{n+1}.

    R is zero except on the smallest index j0 of each pi-orbit: there it
    holds s_{j0} l_1, s_{j0} l_2, ... on the orbit's columns in ascending
    order, and l_1 / Tr(l_1) when the orbit is the fixed index j0 alone.
    When an orbit's scale product is 1 and its scales lie in k, the
    averaged row j0 is s_{j0} times the coset sums l_{1+t} + l_{1+t+d} + ...
    of sigma^d, d the orbit size, and a fixed index gets 1.  Otherwise it is
    Hilbert 90's row for L over the fixed field of sigma^d, which exists for
    every honest cocycle; the average is then certified like any other, by
    `check_split`, and proven invertible by its caller: by the `inverse`
    that `surface_model` needs anyway, or by its k-rank.
    """
    L = xi.extension
    if nb.extension != L:
        raise InputError("normal basis is over a different extension")
    sp = as_scaled_permutation(xi.at_generator)
    if sp is None:
        raise NotMonomialCocycle("cocycle value is not a scaled permutation")
    if xi.scalar_class != L.one():
        raise NotHonestCocycle("structured split requires an honest cocycle")
    labels = nb.elements
    rows: list[list[tuple[int, ExtElement]]] = [[] for _ in range(xi.size)]
    seen: set[int] = set()
    for j0 in range(xi.size):
        if j0 in seen:
            continue
        orbit = [j0]
        while sp.perm[orbit[-1]] != j0:
            orbit.append(sp.perm[orbit[-1]])
        seen.update(orbit)
        if len(orbit) == 1:
            rows[j0] = [(j0, labels[0] * sum(labels, L.zero()).inverse())]
        else:
            rows[j0] = [(c, sp.scales[j0] * labels[t])
                        for t, c in enumerate(sorted(orbit))]
    M = _average(xi, Matrix(L, xi.size, tuple(rows)))
    check_split(xi, M)
    return M


def coboundary_from_witness(L: CyclicExtension, a, lam: ExtElement) -> Matrix:
    """P with A_sigma * sigma(P) = lam * P, where A_sigma is the companion
    cocycle value for a and norm(lam) = a.

    A_sigma / lam is an honest cocycle (twisted product a / norm(lam) = 1)
    with one orbit, and P is its structured split: its check proves
    A_sigma sigma(P) = lam P, and its k-rank n+1 proves P invertible (module
    docstring), so A_sigma = lam * P * sigma(P)^{-1} in PGL_{n+1}(L).
    """
    a = L.base.coerce(a)
    if norm(L, lam) != a:
        raise NotAWitness(f"norm of the witness is {norm(L, lam)}, not {a}")
    A = cyclic_cocycle(L, a).at_generator.scale(lam.inverse())
    P = split_structured(make_cocycle(L, A), find_normal_basis(L))
    if k_rank(P) < P.rows:  # callers need not invert P
        raise InternalDescentFailure("structured split produced a singular matrix")
    return P


def witness_split_scalar(L: CyclicExtension, lam: ExtElement) -> ExtElement:
    """s = prod_j sigma^j(lam)^{n-j}; satisfies s / sigma(s) = lam^{n+1}/norm(lam)."""
    n = L.degree - 1
    s = L.one()
    for j in range(n + 1):
        s = s * galois_apply(L, lam, j) ** (n - j)
    return s
