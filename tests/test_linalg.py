"""Exact matrices over extension elements: product, inverse, rank, Galois."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi import (
    as_scaled_permutation,
    cyclic_cocycle,
    from_rows,
    galois_matrix,
    identity,
    inverse,
    make_shanks_cubic,
    mul,
    rank,
)
from severi.errors import ShapeMismatch, Singular
from severi.linalg import rref


def F(x):
    return Fraction(x)


def rand_matrix(L, size, rng, lo=-4, hi=4):
    return from_rows(L, [[L.el([F(rng.randint(lo, hi)) for _ in range(3)])
                          for _ in range(size)] for _ in range(size)])


def test_inverse_identity(shanks1):
    I3 = identity(shanks1, 3)
    assert inverse(I3) == I3


def test_mul_inverse_random_4x4(shanks1):
    rng = random.Random(7)
    found = 0
    while found < 3:
        A = rand_matrix(shanks1, 4, rng)
        if rank(A) < 4:
            continue
        assert mul(A, inverse(A)) == identity(shanks1, 4)
        found += 1


def test_singular_inverse_rejected(shanks1):
    Z = from_rows(shanks1, [[1, 1], [1, 1]])
    with pytest.raises(Singular):
        inverse(Z)


def test_shape_mismatch(shanks1):
    A = identity(shanks1, 2)
    B = identity(shanks1, 3)
    with pytest.raises(ShapeMismatch):
        mul(A, B)


def test_galois_matrix_fixes_base_entries(shanks1):
    A = from_rows(shanks1, [[1, 2], [3, Fraction(1, 2)]])
    assert galois_matrix(shanks1, A, 1) == A


def test_galois_matrix_cycles_normal_basis(shanks1, nb1):
    l1, l2, l3 = nb1.elements
    D = from_rows(shanks1, [[l1, 0, 0], [0, l2, 0], [0, 0, l3]])
    Dnext = from_rows(shanks1, [[l2, 0, 0], [0, l3, 0], [0, 0, l1]])
    assert galois_matrix(shanks1, D, 1) == Dnext


def test_galois_matrix_full_orbit_is_identity_map(shanks1):
    rng = random.Random(0)
    A = rand_matrix(shanks1, 3, rng)
    assert galois_matrix(shanks1, A, 3) == A


def test_scaled_permutation_companion(shanks1):
    A = cyclic_cocycle(shanks1, F(2)).at_generator
    sp = as_scaled_permutation(A)
    assert sp is not None
    # column j feeds row perm[j]; X -> row 1, Y -> row 2, Z -> row 0
    assert sp.perm == (1, 2, 0)
    scales = [sp.scales[i] for i in range(3)]
    assert scales.count(shanks1.one()) == 2
    assert shanks1.from_base(F(2)) in scales


def test_scaled_permutation_identity(shanks1):
    sp = as_scaled_permutation(identity(shanks1, 3))
    assert sp.perm == (0, 1, 2)
    assert all(s == shanks1.one() for s in sp.scales)


def test_scaled_permutation_rejects_dense(shanks1):
    A = from_rows(shanks1, [[1, 1], [1, 1]])
    assert as_scaled_permutation(A) is None


def test_rank_and_rref(shanks1):
    A = from_rows(shanks1, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(A) == 2
    R, pivots = rref(A)
    assert len(pivots) == 2
    assert R.at(0, pivots[0]) == shanks1.one()


def test_sparse_rows_match_dense_entries(shanks1, f5):
    rng = random.Random(3)
    for L in (shanks1, f5):
        for rows, cols in ((3, 3), (2, 4), (4, 1)):
            A = from_rows(L, [[L.el([rng.randint(-1, 1) for _ in range(L.degree)])
                               if rng.random() < 0.5 else 0 for _ in range(cols)]
                              for _ in range(rows)])
            assert A.sparse_rows == tuple(
                tuple((j, A.at(i, j)) for j in range(cols) if not A.at(i, j).is_zero())
                for i in range(rows))
    Z = from_rows(f5, [[0, 0], [0, 0]])
    assert Z.sparse_rows == ((), ())
    assert identity(f5, 3).sparse_rows == tuple(((i, f5.one()),) for i in range(3))


# ---------------------------------------------------------------------------
# sampled laws
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_galois_distributes_over_mul(seed):
    L = make_shanks_cubic(1)
    rng = random.Random(seed)
    A = rand_matrix(L, 3, rng, -2, 2)
    B = rand_matrix(L, 3, rng, -2, 2)
    assert galois_matrix(L, mul(A, B), 1) == mul(galois_matrix(L, A, 1),
                                                 galois_matrix(L, B, 1))


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_inverse_involutive(seed):
    L = make_shanks_cubic(1)
    rng = random.Random(seed)
    A = rand_matrix(L, 3, rng, -2, 2)
    if rank(A) < 3:
        return
    assert inverse(inverse(A)) == A


# ---------------------------------------------------------------------------
# full rank against independent determinants: rank(A) == n exactly when
# det(A) != 0
# ---------------------------------------------------------------------------

def _leibniz(A):
    """Signed sum over permutations; the 0x0 determinant is 1."""
    total = A.ext.zero()
    for perm in itertools.permutations(range(A.rows)):
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                         if perm[i] > perm[j])
        term = A.ext.one()
        for i, j in enumerate(perm):
            term = term * A.at(i, j)
        total = total + term if inversions % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4])  # 0x0 has determinant 1
def test_det_matches_leibniz(shanks1, f5, size):
    """Random matrices, and for size >= 2 the same with the last row made
    a multiple of the first, so that both verdicts occur."""
    rng = random.Random(size)
    for L in (shanks1, f5):
        for _ in range(3):
            rows = [[L.el([rng.randint(-3, 3) for _ in range(3)])
                     for _ in range(size)] for _ in range(size)]
            cases = [rows]
            if size >= 2:
                c = L.el([rng.randint(-3, 3) for _ in range(3)])
                cases.append(rows[:-1] + [[c * x for x in rows[0]]])
            for case in cases:
                A = from_rows(L, case)
                assert (rank(A) == size) == (not _leibniz(A).is_zero())


def test_det_singular_and_row_swaps(shanks1):
    t = shanks1.theta()
    S = from_rows(shanks1, [[1, t, 2], [t, t * t, 2 * t], [0, 1, t]])  # row 2 = t * row 1
    assert rank(S) == 2 and _leibniz(S).is_zero()
    P = from_rows(shanks1, [[0, 1, t], [1, 0, 0], [t, 2, 0]])  # needs pivoting
    assert rank(P) == 3 and not _leibniz(P).is_zero()
    assert mul(P, inverse(P)) == identity(shanks1, 3)


@pytest.mark.parametrize("p", [None, 7])
def test_det_matches_sympy_on_base_field_matrices(shanks1, f7, p):
    sympy = pytest.importorskip("sympy")
    L = shanks1 if p is None else f7
    rng = random.Random(11)
    for size in range(1, 7):
        for _ in range(4):
            if p is None:
                vals = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(size)] for _ in range(size)]
            else:
                vals = [[rng.randint(0, p - 1) for _ in range(size)]
                        for _ in range(size)]
            want = sympy.Matrix(vals).det()
            nonzero = want != 0 if p is None else int(want) % p != 0
            assert (rank(from_rows(L, vals)) == size) == nonzero
