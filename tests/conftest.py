import numpy as np
import pytest

from osclab.algebra import LambdaSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spec1():
    return LambdaSpec((1.0,))


@pytest.fixture
def spec12():
    return LambdaSpec((1.0, 2.0))


@pytest.fixture
def spec112():
    return LambdaSpec((1.0, 1.0, 2.0))


def paper_basis_brackets(spec):
    """B[a, b, :] = [e_a, e_b] written from the paper's three bracket rules
    [e_-1, e_j] = l_j ec_j, [e_j, ec_j] = e_0 and [e_-1, ec_j] = -l_j e_j,
    extended antisymmetrically; every other pair of basis vectors commutes."""
    d = spec.dim
    B = np.zeros((d, d, d))
    for j, lj in enumerate(spec.lambdas, start=1):
        ej, ecj = spec.e_index(j), spec.ec_index(j)
        for a, b, c, coeff in ((0, ej, ecj, lj), (ej, ecj, 1, 1.0), (0, ecj, ej, -lj)):
            B[a, b, c] = coeff
            B[b, a, c] = -coeff
    return B


def group_dist(a, b):
    return max(abs(a.t - b.t), abs(a.s - b.s),
               float(np.max(np.abs(a.z - b.z))))


def isom_dist(a, b):
    return max(group_dist(a.sigma, b.sigma),
               float(np.max(np.abs(a.iso.matrix - b.iso.matrix))))
