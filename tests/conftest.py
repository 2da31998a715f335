"""Shared fixtures: the cubic fields and surface models used across suites.

Everything here is deterministic; session scope keeps the symbolic
pipelines (splitting, descent, validation) to one run per object.
"""
from fractions import Fraction

import pytest

from severi import (
    QQ,
    appendix_model,
    find_normal_basis,
    frobenius_extension,
    make_extension,
    make_shanks_cubic,
    surface_model,
)


@pytest.fixture(scope="session")
def shanks1():
    return make_shanks_cubic(1)


@pytest.fixture(scope="session")
def nb1(shanks1):
    return find_normal_basis(shanks1)


@pytest.fixture(scope="session")
def zeta5():
    # degree-4 cyclic field: x^4+x^3+x^2+x+1 with generator x -> x^2
    return make_extension(QQ, [1, 1, 1, 1, 1], [0, 0, 1])


@pytest.fixture(scope="session")
def f2():
    return frobenius_extension(2, 3)


@pytest.fixture(scope="session")
def f3():
    return frobenius_extension(3, 3)


@pytest.fixture(scope="session")
def f5():
    return frobenius_extension(5, 3)


@pytest.fixture(scope="session")
def f7():
    return frobenius_extension(7, 3)


@pytest.fixture(scope="session")
def model_q(shanks1):
    return surface_model(shanks1, Fraction(2))


@pytest.fixture(scope="session")
def model_f2(f2):
    return surface_model(f2, 1)


@pytest.fixture(scope="session")
def model_f3(f3):
    return surface_model(f3, 2)


@pytest.fixture(scope="session")
def model_f7(f7):
    return surface_model(f7, 3)


@pytest.fixture(scope="session")
def model_n3_f5():
    return surface_model(frobenius_extension(5, 4), 2)


@pytest.fixture(scope="session")
def appendix_q(model_q):
    return appendix_model(model_q)
