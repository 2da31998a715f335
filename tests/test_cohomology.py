"""Cocycles for the cyclic Galois group and constructive splittings."""
import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from severi import (
    QQ,
    coboundary_from_witness,
    cyclic_cocycle,
    find_normal_basis,
    frobenius_extension,
    from_rows,
    galois_matrix,
    identity,
    induced_matrix,
    inverse,
    lift_to_veronese,
    make_cocycle,
    make_extension,
    make_shanks_cubic,
    monomial_basis,
    mul,
    norm,
    norm_witness,
    rank,
    split_generic,
    split_structured,
    surface_model,
    witness_split_scalar,
)
from severi import cohomology, linalg, twisting, verify
from severi.cli import main
from severi.cohomology import check_split
from severi.linalg import Matrix, matrix_to_json
from severi.twisting import image_defect
from severi.verify import base_change_matrix
from severi.veronese import ParametrizationMap
from severi.errors import (
    AllAttemptsSingular,
    InternalDescentFailure,
    NotAWitness,
    NotHonestCocycle,
    NotMonomialCocycle,
    Singular,
    VerificationError,
    ZeroA,
)


def F(x):
    return Fraction(x)


def a_el(L, x):
    return L.from_base(F(x))


# ---------------------------------------------------------------------------
# companion cocycle
# ---------------------------------------------------------------------------

def test_companion_matrix_shape(shanks1):
    xi = cyclic_cocycle(shanks1, F(2))
    assert xi.at_generator == from_rows(shanks1, [[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert xi.scalar_class == a_el(shanks1, 2)


def test_companion_cube_is_a_times_identity(shanks1):
    xi = cyclic_cocycle(shanks1, F(2))
    A = xi.at_generator
    assert mul(mul(A, A), A) == identity(shanks1, 3).scale(a_el(shanks1, 2))


def test_companion_degree_4(zeta5):
    xi = cyclic_cocycle(zeta5, F(5))
    A = xi.at_generator
    assert A.rows == 4
    rows = A.as_rows()
    assert rows[0][3] == a_el(zeta5, 5)
    for i in range(1, 4):
        assert rows[i][i - 1] == zeta5.one()
    P = identity(zeta5, 4)
    for _ in range(4):
        P = mul(P, A)
    assert P == identity(zeta5, 4).scale(a_el(zeta5, 5))


def test_zero_a_rejected(shanks1):
    with pytest.raises(ZeroA):
        cyclic_cocycle(shanks1, F(0))


def test_twisted_product_value(shanks1):
    xi = cyclic_cocycle(shanks1, F(2))
    assert len(xi.values) == 3
    assert xi.values[0] == identity(shanks1, 3)
    assert xi.values[1] == xi.at_generator
    # xi(sigma^2) = xi(sigma) . sigma(xi(sigma))
    expected = mul(xi.at_generator, galois_matrix(shanks1, xi.at_generator, 1))
    assert xi.values[2] == expected
    assert mul(expected, galois_matrix(shanks1, xi.at_generator, 2)) == identity(
        shanks1, 3).scale(a_el(shanks1, 2))


# ---------------------------------------------------------------------------
# veronese lift
# ---------------------------------------------------------------------------

def test_lift_is_honest_scaled_permutation(shanks1):
    from severi import as_scaled_permutation
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    assert lift.size == 10
    assert lift.scalar_class == shanks1.one()
    assert as_scaled_permutation(lift.at_generator) is not None
    assert mul(lift.values[2], galois_matrix(shanks1, lift.at_generator, 2)) == identity(
        shanks1, 10)


def test_lift_identity_cocycle(shanks1):
    xi = make_cocycle(shanks1, identity(shanks1, 3))
    assert lift_to_veronese(xi).at_generator == identity(shanks1, 10)


def test_lift_commutes_with_twisted_product(shanks1):
    xi = cyclic_cocycle(shanks1, F(2))
    lift = lift_to_veronese(xi)
    mb = monomial_basis(2, 3)
    for j in range(3):
        norm_by = a_el(shanks1, 2 ** j)
        assert induced_matrix(mb, xi.values[j]).scale(
            norm_by.inverse()) == lift.values[j]


def test_lift_of_coboundary_splits_over_base(shanks1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(1)))
    M = split_generic(lift)
    check_split(lift, M)


# ---------------------------------------------------------------------------
# generic split
# ---------------------------------------------------------------------------

def test_split_identity_cocycle(shanks1):
    xi = make_cocycle(shanks1, identity(shanks1, 3))
    M = split_generic(xi)
    check_split(xi, M)


def test_split_generic_residual_zero(shanks1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    M = split_generic(lift, rng_seed=0)
    assert mul(lift.at_generator, galois_matrix(shanks1, M, 1)) == M


def test_split_generic_finite_field(f7):
    for a in (1, 3, 6):
        lift = lift_to_veronese(cyclic_cocycle(f7, a))
        check_split(lift, split_generic(lift))


def test_split_generic_requires_honest(shanks1):
    xi = cyclic_cocycle(shanks1, F(2))  # scalar_class = 2, not honest
    with pytest.raises(NotHonestCocycle):
        split_generic(xi)


def test_split_generic_seed_determinism(shanks1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    assert split_generic(lift, rng_seed=3) == split_generic(lift, rng_seed=3)
    assert split_generic(lift, rng_seed=3) != split_generic(lift, rng_seed=4)


@pytest.mark.parametrize("L", [make_shanks_cubic(1), frobenius_extension(5, 4)],
                         ids=["shanks1", "f625"])
def test_random_matrix_entries_are_the_el_entries(L):
    # built from their integer coordinates, the entries are the elements
    # `L.el` makes of the same draws, in the same order
    size, coords = 6, random.Random(7)
    draw = ((lambda: coords.randint(-3, 3)) if L.base.p is None
            else (lambda: coords.randrange(L.base.p)))
    by_el = from_rows(L, [[L.el([draw() for _ in range(L.degree)])
                           for _ in range(size)] for _ in range(size)])
    R = cohomology._random_matrix(L, size, random.Random(7))
    assert R == by_el
    assert all(x.den == 1 for row in R.sparse_rows for _, x in row)


# (field, a): the cubic fields at n = 2 and the quartic ones at n = 3
K_RANK_CASES = {
    "f8": (lambda: frobenius_extension(2, 3), 1),
    "f27": (lambda: frobenius_extension(3, 3), 2),
    "f625": (lambda: frobenius_extension(5, 4), 2),
    "f16": (lambda: frobenius_extension(2, 4), 1),
    "shanks1": (lambda: make_shanks_cubic(1), F(2)),
    "shanks2": (lambda: make_shanks_cubic(2), Fraction(-9, 2)),
    "zeta5": (lambda: make_extension(QQ, [1, 1, 1, 1, 1], [0, 0, 1]), F(5)),
}


@pytest.mark.parametrize("case", sorted(K_RANK_CASES))
def test_k_rank_of_split_columns_is_their_rank_over_L(case):
    """The averages of an honest cocycle pass `check_split`, so their
    columns lie in a k-form of L^m and their k-rank is their rank over L.
    The averages are a generic split, which has rank m, and those of a
    pseudo-random R, of R with one repeated row, and of R with its first
    two columns zeroed, which has rank at most m - 2."""
    make, a = K_RANK_CASES[case]
    L = make()
    lift = lift_to_veronese(cyclic_cocycle(L, a))
    m, rng = lift.size, random.Random(1)
    averages = [split_generic(lift)]
    for trial in range(3):
        rows = list(cohomology._random_matrix(L, m, rng).sparse_rows)
        if trial == 1:
            rows[1] = rows[0]
        elif trial == 2:
            rows = [[(j, x) for j, x in row if j >= 2] for row in rows]
        averages.append(cohomology._average(lift, Matrix(L, m, tuple(rows))))
    ranks = []
    for M in averages:
        check_split(lift, M)
        ranks.append(rank(M))
        assert cohomology.k_rank(M) == ranks[-1]
    assert ranks[0] == m and ranks[-1] <= m - 2


def test_k_rank_counts_columns_off_the_k_form(shanks1, nb1):
    # theta times a column of a split leaves the k-form, so it adds one to
    # the k-rank though it adds nothing to the rank over L
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    Ms = split_structured(lift, nb1)
    bent = Matrix(shanks1, 1, tuple(
        [(0, x * shanks1.theta()) for j, x in row if j == 0] for row in Ms.sparse_rows))
    assert cohomology.k_rank(Ms) == cohomology.k_rank(Ms, Ms) == 10
    assert cohomology.k_rank(Ms, bent) == 11 and rank(Ms) == 10


# ---------------------------------------------------------------------------
# structured split
# ---------------------------------------------------------------------------

def test_structured_fixed_monomial_row(shanks1, nb1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    M = split_structured(lift, nb1)
    row = M.as_rows()[4]
    assert row[4] == shanks1.one()
    assert all(row[j].is_zero() for j in range(10) if j != 4)


def test_structured_pure_power_orbit_block(shanks1, nb1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    M = split_structured(lift, nb1)
    l1, l2, l3 = nb1.elements
    four = a_el(shanks1, 4)
    row = M.as_rows()[0]
    assert row[0] == four * l1
    assert row[6] == four * l2
    assert row[9] == four * l3


def test_structured_is_valid_split(shanks1, nb1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    M = split_structured(lift, nb1)
    check_split(lift, M)


def test_structured_rejects_dense_cocycle(shanks1, nb1):
    # a coboundary M sigma(M)^{-1} with a dense value is a valid cocycle
    M = from_rows(shanks1, [[1, shanks1.theta()], [0, 1]])
    val = mul(M, inverse(galois_matrix(shanks1, M, 1)))
    dense = make_cocycle(shanks1, val)
    with pytest.raises(NotMonomialCocycle):
        split_structured(dense, nb1)


def test_structured_splits_fixed_index_of_scale_minus_one():
    # over Q(i), [-1] is honest ((-1) * sigma(-1) = 1); its one-point orbit
    # has scale -1, so the split is not 1 but the Hilbert 90 average
    # (l_1 - l_2) / Tr(l_1), which sigma negates
    Qi = make_extension(QQ, [1, 0, 1], [0, -1])
    xi = make_cocycle(Qi, from_rows(Qi, [[-1]]))
    assert xi.scalar_class == Qi.one()
    nb = find_normal_basis(Qi)
    M = split_structured(xi, nb)
    check_split(xi, M)
    l1, l2 = nb.elements
    assert M.as_rows()[0][0] == (l1 - l2) / (l1 + l2)


def test_structured_splits_sym2_orbits_of_scale_product_minus_one(zeta5):
    # Sym^2 of the companion value at a = -1 is honest ((-1)^2 = 1), and its
    # orbit {x0x2, x1x3} of size 2 has scale product -1
    A = cyclic_cocycle(zeta5, F(-1)).at_generator
    xi = make_cocycle(zeta5, induced_matrix(monomial_basis(3, 2), A))
    assert xi.scalar_class == zeta5.one()
    M = split_structured(xi, find_normal_basis(zeta5))
    assert M.rows == 10 and rank(M) == 10
    check_split(xi, M)


def _structured_split(L, a):
    return split_structured(lift_to_veronese(cyclic_cocycle(L, a)),
                            find_normal_basis(L))


def _witness_coboundary():
    L = make_shanks_cubic(1)
    return coboundary_from_witness(L, F(-1), L.one() + L.theta())


# sha256 of json.dumps(matrix_to_json(M)), recorded before the structured
# split became an average; every split the program makes stays the same
STRUCTURED_SPLITS = {
    "shanks3": ("b5ed2fffa31d03f5afba5594fe5998b1d477b0359e03a7f0ad82b763d1be8917",
                lambda: _structured_split(make_shanks_cubic(3), F(-5) / 2)),
    "f343": ("3c15690002261155a3c5787be5727c7c018cd1f1d0e47c3d65ae8015d0cfbd1f",
             lambda: _structured_split(frobenius_extension(7, 3), 3)),
    "f625": ("af737b7ff7591e679c3a9b742ffe498f8849a1962333b8793bc90503ed98951d",
             lambda: _structured_split(frobenius_extension(5, 4), 2)),
    "zeta5": ("6db3bb20e5fd9974a6c566284f1592041a92abafb6cd1ae7feb5f1e0deceef09",
              lambda: _structured_split(
                  make_extension(QQ, [1, 1, 1, 1, 1], [0, 0, 1]), F(5))),
    "qi-conic": ("684beefbae1501eb4ee130d213153f77949f13e8bfeecf4fc192ef368ff7c9ac",
                 lambda: _structured_split(
                     make_extension(QQ, [1, 0, 1], [0, -1]), F(2))),
    "witness": ("3cef6cde547a7b043c5a25f97317868c251a0dc21d71cc98491e80b108f00189",
                _witness_coboundary),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED_SPLITS))
def test_structured_split_pinned(name):
    digest, build = STRUCTURED_SPLITS[name]
    M = build()
    assert hashlib.sha256(json.dumps(matrix_to_json(M)).encode()).hexdigest() == digest


def test_companion_scalar_class_is_checked(shanks1, monkeypatch):
    # the `cocycle` suite's companion-twisted-power-is-aI PASS rests on this
    # raise, which `python -O` keeps
    build = cohomology.make_cocycle
    monkeypatch.setattr(cohomology, "make_cocycle", lambda L, A: replace(
        build(L, A), scalar_class=L.one()))
    with pytest.raises(InternalDescentFailure, match="a \\* I"):
        cyclic_cocycle(shanks1, F(2))


def _all_ones_labels(L):
    # labels that are all 1 make the structured rows dependent
    return SimpleNamespace(extension=L, elements=(L.one(),) * L.degree)


def test_surface_model_rejects_a_singular_split(shanks1, monkeypatch, capsys):
    """The structured split certifies its residual only; `inverse`, right
    after the split, is the proof that M is invertible, so a singular
    split stops the model with `Singular` before the twist, exit 1."""
    monkeypatch.setattr(twisting, "find_normal_basis", _all_ones_labels)
    monkeypatch.setattr(twisting, "substitute_linear",
                        lambda Q, M: pytest.fail("a singular split was twisted"))
    with pytest.raises(Singular):
        surface_model(shanks1, F(2))
    assert main(["surface", "--field", "shanks:t=1", "--a", "2"]) == 1
    assert "error: Singular:" in capsys.readouterr().err


def test_coboundary_rejects_a_singular_split(shanks1, monkeypatch):
    # no caller need invert the witness coboundary, so it tests its own rank
    monkeypatch.setattr(cohomology, "find_normal_basis", _all_ones_labels)
    with pytest.raises(InternalDescentFailure, match="singular"):
        coboundary_from_witness(shanks1, F(-1), shanks1.one() + shanks1.theta())


def test_split_suite_rejects_a_singular_structured_split(shanks1, monkeypatch):
    # the suite inverts no split: the k-rank of Ms is its invertibility proof
    monkeypatch.setattr(verify, "find_normal_basis", _all_ones_labels)
    with pytest.raises(InternalDescentFailure, match="singular"):
        verify._suite_split(shanks1, F(2), 1, None)


def test_surface_model_eliminates_its_split_once(shanks1, monkeypatch):
    """One elimination of the 10 x 10 splitting matrix per model, its
    inverse.  The other linalg elimination is `induced_matrix`'s rank
    guard on the 3 x 3 companion value; the descent reduces over k
    without linalg."""
    calls = []
    reduce_rows = linalg.row_reduce

    def counting(ext, rows):
        rows = list(rows)
        calls.append(len(rows))
        return reduce_rows(ext, rows)

    monkeypatch.setattr(linalg, "row_reduce", counting)
    surface_model(shanks1, F(2))
    assert calls == [3, 10]


def test_split_suite_eliminates_over_k_only(monkeypatch):
    """The `split` suite proves its six splits invertible by k-ranks, which
    reduce over k without linalg, and reports the five differences in
    GL_m(k) from those proofs; its one linalg elimination is
    `induced_matrix`'s rank guard on the 3 x 3 companion value."""
    calls = []
    reduce_rows = linalg.row_reduce

    def counting(ext, rows):
        rows = list(rows)
        calls.append(len(rows))
        return reduce_rows(ext, rows)

    monkeypatch.setattr(linalg, "row_reduce", counting)
    checks = verify._suite_split(make_shanks_cubic(2), Fraction(-9, 2), 1, None)
    assert calls == [3]
    assert len(checks) == 11 and all(c.status == "pass" for c in checks)


def test_splits_reject_singular_matrices(shanks1, monkeypatch):
    # the randomized split tests full rank: zero trial matrices make every
    # averaging attempt singular
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    monkeypatch.setattr(cohomology, "_random_matrix",
                        lambda L, size, rng: from_rows(L, [[0] * size] * size))
    with pytest.raises(AllAttemptsSingular):
        split_generic(lift)


def test_two_splits_differ_by_base_matrix(shanks1, nb1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    M1 = split_structured(lift, nb1)
    M2 = split_generic(lift, rng_seed=1)
    D = mul(inverse(M1), M2)
    for row in D.as_rows():
        for e in row:
            assert e.in_base()


# ---------------------------------------------------------------------------
# coboundaries from norm witnesses
# ---------------------------------------------------------------------------

def test_coboundary_trivial_witness(shanks1):
    P = coboundary_from_witness(shanks1, F(1), shanks1.one())
    xi = cyclic_cocycle(shanks1, F(1))
    assert mul(xi.at_generator, galois_matrix(shanks1, P, 1)) == P


def test_coboundary_minus_one(shanks1):
    # the exact identity is A_sigma . sigma(P) = lam . P
    lam = shanks1.one() + shanks1.theta()
    assert norm(shanks1, lam) == F(-1)
    P = coboundary_from_witness(shanks1, F(-1), lam)
    xi = cyclic_cocycle(shanks1, F(-1))
    assert mul(xi.at_generator, galois_matrix(shanks1, P, 1)) == P.scale(lam)


def test_coboundary_wrong_witness(shanks1):
    with pytest.raises(NotAWitness):
        coboundary_from_witness(shanks1, F(2), shanks1.one())


def test_witness_split_scalar_law(shanks1):
    # s = prod sigma^j(lam)^{n-j} satisfies s / sigma(s) = lam^{n+1} / norm(lam)
    lam = shanks1.one() + shanks1.theta()
    s = witness_split_scalar(shanks1, lam)
    from severi import galois_apply
    lhs = s / galois_apply(shanks1, s, 1)
    assert lhs == lam ** 3 / a_el(shanks1, norm(shanks1, lam))


def test_lift_split_from_witness(shanks1):
    # s * Ver(P_lam) splits the lift, and the model's parametrization
    # carries it to D in GL_10(Q)
    lam = shanks1.one() + shanks1.theta()
    model = surface_model(shanks1, F(-1))
    Mw = induced_matrix(model.parametrization.basis,
                        coboundary_from_witness(shanks1, F(-1), lam)).scale(
        witness_split_scalar(shanks1, lam))
    check_split(lift_to_veronese(cyclic_cocycle(shanks1, F(-1))), Mw)
    D = base_change_matrix(model, lam)
    assert D == mul(model.parametrization.matrix, Mw)
    assert all(e.in_base() for row in D.sparse_rows for _, e in row)
    assert rank(D) == 10


def _witness_case(name, request):
    """(L, a, lam, model): Shanks t = 1 with the named witness of -1, and
    F_7, F_{5^4} and Q(zeta5) with a searched witness.  Over Q(zeta5) the
    model stands on its structured parametrization alone, with no
    equations: the n = 3 model over Q takes about 20 s to build."""
    if name == "shanks1":
        L = make_shanks_cubic(1)
        return L, F(-1), L.one() + L.theta(), surface_model(L, F(-1))
    if name == "zeta5":
        L = make_extension(QQ, [1, 1, 1, 1, 1], [0, 0, 1])
        a = F(5)
        lift = lift_to_veronese(cyclic_cocycle(L, a))
        P = inverse(split_structured(lift, find_normal_basis(L)))
        model = SimpleNamespace(extension=L, a=a, parametrization=
                                ParametrizationMap(monomial_basis(3, 4), P))
    else:
        model = request.getfixturevalue({"f7": "model_f7",
                                         "f625": "model_n3_f5"}[name])
        L, a = model.extension, model.a
    return L, a, norm_witness(L, a, bound=1000).witness, model


@pytest.mark.parametrize("name", ["shanks1", "f7", "f625", "zeta5"])
def test_witness_coboundary_and_base_change(name, request):
    L, a, lam, model = _witness_case(name, request)
    P = coboundary_from_witness(L, a, lam)
    A = cyclic_cocycle(L, a).at_generator
    assert mul(A, galois_matrix(L, P, 1)) == P.scale(lam)
    assert rank(P) == L.degree
    D = base_change_matrix(model, lam)
    assert all(e.in_base() for row in D.sparse_rows for _, e in row)
    assert rank(D) == D.rows == model.parametrization.basis.m
    if name != "zeta5":
        assert image_defect(model.equations_over_k,
                            model.parametrization.basis, D) is None


def test_check_split_rejects_wrong_matrix(shanks1):
    lift = lift_to_veronese(cyclic_cocycle(shanks1, F(2)))
    with pytest.raises(VerificationError):
        check_split(lift, identity(shanks1, 10))
