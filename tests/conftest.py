from fractions import Fraction

import pytest

from eqspace import EquippedSpace, Matrix
from eqspace.sampling import random_equipped

# Quantum plane structure at q=2: image is span{v0 v1 - 2 v1 v0}.
QP_MATRIX = Matrix(
    [
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, -2, 0, 0],
        [0, 0, 0, 0],
    ]
)

# Standard two-dimensional braiding at q=2 in basis order (00, 01, 10, 11).
DJ_MATRIX = Matrix(
    [
        [2, 0, 0, 0],
        [0, Fraction(3, 2), 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 2],
    ]
)


def random_quadratic(rng, dim):
    """Seeded random space of dimension dim with a degree-2 structure only."""
    return random_equipped(rng, dim, (2,))


def cubic_matrix():
    """Rank-one cubic structure with image span{v0 v0 v1 - v1 v0 v0}."""
    w = [0] * 8
    w[1] = 1
    w[4] = -1
    return Matrix([[w[r] for _ in range(8)] for r in range(8)])


@pytest.fixture
def qp():
    return EquippedSpace(2, {2: QP_MATRIX})


@pytest.fixture
def dj():
    return EquippedSpace(2, {2: DJ_MATRIX})


@pytest.fixture
def cubic():
    return EquippedSpace(2, {3: cubic_matrix()})
