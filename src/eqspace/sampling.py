"""Seeded random inputs for the property suites.

Entries are drawn from numerators in [-3, 3] and denominators in {1, 2, 3}
so randomized runs stay small, exact and reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction

from .matrix import Matrix
from .spaces import EquippedSpace

MAX_NUMERATOR = 3
MAX_DENOMINATOR = 3


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(
        rng.randint(-MAX_NUMERATOR, MAX_NUMERATOR), rng.randint(1, MAX_DENOMINATOR)
    )


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(
        [[random_rational(rng) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_structure_matrix(rng: random.Random, dim: int, degree: int) -> Matrix:
    """Structure matrix drawn from a mix of shapes.

    Dense rational matrices are almost always invertible, which makes
    every relation span full and trivializes containment checks; mixing
    in sparse and column-zeroed draws keeps low-rank images (and hence
    nonzero annihilators) common while staying inside the [-3, 3] entry
    range.
    """
    size = dim**degree
    mode = rng.random()
    if mode < 0.4:
        return random_matrix(rng, size, size)
    if mode < 0.7:
        return Matrix(
            [
                [random_rational(rng) if rng.random() < 0.35 else 0 for _ in range(size)]
                for _ in range(size)
            ],
            cols=size,
        )
    dense = [[random_rational(rng) for _ in range(size)] for _ in range(size)]
    keep = [rng.random() < 0.5 for _ in range(size)]
    return Matrix([[x if k else 0 for x, k in zip(row, keep)] for row in dense], cols=size)


def random_equipped(
    rng: random.Random, dim: int, degrees: Sequence[int] = (2,)
) -> EquippedSpace:
    return EquippedSpace(
        dim, {n: random_structure_matrix(rng, dim, n) for n in degrees}
    )
