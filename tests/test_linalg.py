"""Exact matrices over extension elements: product, inverse, rank, Galois."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi import (
    Matrix,
    as_scaled_permutation,
    cyclic_cocycle,
    from_rows,
    galois_apply,
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
    assert R.as_rows()[0][pivots[0]] == shanks1.one()


def _dense_rref(rows):
    """Textbook Gauss-Jordan on dense rows: the reduced rows, zero rows
    last, and the pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def test_sparse_rows_match_dense_entries(shanks1, zeta5, f5, f7):
    # the stored rows are the nonzero entries by increasing column, however
    # the matrix is built, and every operation agrees with a dense
    # computation on as_rows()
    rng = random.Random(3)
    inverted = 0
    for L in (shanks1, zeta5, f5, f7):
        zero, one, p = L.zero(), L.one(), L.base.p

        def coord():
            return (Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if p is None
                    else rng.randrange(p))

        def dense(rows, cols, density=0.6):
            return [[L.el([coord() for _ in range(L.degree)])
                     if rng.random() < density else zero for _ in range(cols)]
                    for _ in range(rows)]

        for rows, cols in ((3, 3), (2, 4), (4, 1), (4, 4), (4, 4), (3, 3)):
            D = dense(rows, cols)
            A = from_rows(L, D)
            assert A.rows == rows and A.cols == cols and A.as_rows() == D
            for row in A.sparse_rows:
                assert all(a < b for (a, _), (b, _) in zip(row, row[1:]))
                assert all(not x.is_zero() for _, x in row)
            assert A.sparse_rows == tuple(
                tuple((j, x) for j, x in enumerate(r) if not x.is_zero()) for r in D)
            shuffled = [list(enumerate(r)) + [(0, zero)] for r in D]
            for pairs in shuffled:
                rng.shuffle(pairs)
            assert Matrix(L, cols, tuple(shuffled)) == A
            c = L.el([coord() for _ in range(L.degree)])
            assert A.scale(c).as_rows() == [[x * c for x in r] for r in D]
            for j in range(L.degree + 1):
                assert galois_matrix(L, A, j).as_rows() == [
                    [galois_apply(L, x, j) for x in r] for r in D]
            E = dense(cols, 3)
            assert mul(A, from_rows(L, E)).as_rows() == [
                [sum((D[i][t] * E[t][j] for t in range(cols)), zero) for j in range(3)]
                for i in range(rows)]
            R, pivots = rref(A)
            assert (R.as_rows(), pivots) == _dense_rref(D)
            if rows == cols and len(pivots) == rows:
                inverted += 1
                aug, _ = _dense_rref([r + [one if i == j else zero for j in range(rows)]
                                      for i, r in enumerate(D)])
                assert inverse(A).as_rows() == [r[rows:] for r in aug]
    assert inverted >= 8
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
    total, rows = A.ext.zero(), A.as_rows()
    for perm in itertools.permutations(range(A.rows)):
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                         if perm[i] > perm[j])
        term = A.ext.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
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
