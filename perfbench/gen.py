"""Seeded input generator for the benchmark.

Self-contained on purpose: it imports nothing from ``eqspace``, so a
library change can never change the inputs the benchmark feeds it.  Every
structure is written in the documented space-file format (rationals as
``"p"`` or ``"p/q"`` strings).

Three families of structures:

- q-commutation relations ``x_i x_j - q_ij x_j x_i`` (i < j) in ``dim``
  generators.  Their quotient is a skew polynomial ring, so its Hilbert
  series is ``C(n + dim - 1, dim - 1)`` for every nonzero choice of q.
  The *sparse* form keeps the relations as drawn (two nonzeros a column).
- the *dense* form of the same relations after a seeded integer change of
  basis ``g`` with det ±1: the structure ``G R G^-1`` with ``G = g (x) g``.
  Its quotient is isomorphic, so the Hilbert series is unchanged, but every
  relation vector is dense.
- dense random structures supported in degrees 2 and 3, with small
  rational entries, for the construction workload.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Iterator

# Five primes of one bit length.  A job draws its q's from them without
# repeats, so no two relations of a job share |q|, and the cost of a draw
# barely depends on the seed: only the order and the signs are seeded.
Q_PRIMES = (17, 19, 23, 29, 31)


def kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Kronecker product, left factor major (the package's flattening)."""
    return [
        [x * y for x in arow for y in brow] for arow in a for brow in b
    ]


def matmul(a: list[list], b: list[list]) -> list[list]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def q_draw(rng: random.Random) -> Iterator[int]:
    """The q's of one job: the primes in seeded order, with seeded signs."""
    return iter(rng.choice((-1, 1)) * q for q in rng.sample(Q_PRIMES, len(Q_PRIMES)))


def qcomm_matrix(qs: Iterator[int], dim: int) -> list[list[int]]:
    """Structure whose column (i, j), i < j, is e_ij - q_ij e_ji."""
    size = dim * dim
    cells = [[0] * size for _ in range(size)]
    for i in range(dim):
        for j in range(i + 1, dim):
            col = i * dim + j
            cells[col][col] = 1
            cells[j * dim + i][col] = -next(qs)
    return cells


def change_of_basis(rng: random.Random, dim: int) -> tuple[list[list[int]], list[list[int]]]:
    """g = S·L·Lᵀ and its integer inverse.

    L is the unit lower triangular matrix of ones, so L·Lᵀ is dense with
    det 1; S is a seeded diagonal of signs.  Signs on the left change the
    structure but not the size of any number met in elimination.
    """
    lower = [[int(j <= i) for j in range(dim)] for i in range(dim)]
    upper = [list(col) for col in zip(*lower)]
    signs = [[rng.choice((-1, 1)) if i == j else 0 for j in range(dim)] for i in range(dim)]
    g = matmul(signs, matmul(lower, upper))
    g_inv = matmul(matmul(_unitriangular_inverse(upper), _unitriangular_inverse(lower)), signs)
    return g, g_inv


def _unitriangular_inverse(t: list[list[int]]) -> list[list[int]]:
    """Inverse of a unit triangular integer matrix, by back substitution."""
    n = len(t)
    lower = all(t[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    order = range(n) if lower else range(n - 1, -1, -1)
    inv = [[0] * n for _ in range(n)]
    for c in range(n):
        for i in order:
            acc = int(i == c)
            for k in range(n):
                if k != i and t[i][k]:
                    acc -= t[i][k] * inv[k][c]
            inv[i][c] = acc
    return inv


def dense_form(rng: random.Random, cells: list[list[int]], dim: int) -> list[list[int]]:
    """Conjugate a degree-2 structure by g (x) g for a seeded change of basis g."""
    g, g_inv = change_of_basis(rng, dim)
    return matmul(matmul(kron(g, g), cells), kron(g_inv, g_inv))


def random_dense(rng: random.Random, size: int) -> list[list[Fraction]]:
    """Dense matrix of small rationals, numerators in [-4, 4] without 0."""
    return [
        [Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 2, 3)))
         for _ in range(size)]
        for _ in range(size)
    ]


def cubic_matrix() -> list[list[int]]:
    """Rank-one cubic structure on two generators, image span{x0x0x1 - x1x0x0}."""
    w = [0] * 8
    w[1], w[4] = 1, -1
    return [[w[r]] * 8 for r in range(8)]


def format_rational(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def space_json(dim: int, structure: dict[int, list[list]]) -> str:
    data = {
        "dim": dim,
        "structure": [
            {"degree": n, "matrix": [[format_rational(x) for x in row] for row in m]}
            for n, m in sorted(structure.items())
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def qcomm_pair(rng: random.Random, qs: Iterator[int], dim: int) -> tuple[str, str]:
    """The sparse and the dense (basis-changed) form of one q-commutation draw."""
    cells = qcomm_matrix(qs, dim)
    return space_json(dim, {2: cells}), space_json(dim, {2: dense_form(rng, cells, dim)})
