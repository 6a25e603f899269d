import random
from fractions import Fraction

import pytest

from eqspace import EquippedSpace, Matrix, boxtimes
from eqspace.fileio import write_space
from eqspace.sampling import random_equipped
from oracles import oracle_rank

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

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def jimbo_matrix(n, q):
    """Jimbo's Hecke operator Ř_q on kⁿ⊗kⁿ, basis order (i, j) -> i·n + j.

    Ř_q is q on e_i⊗e_i; for i < j it sends e_i⊗e_j to
    (q − q⁻¹)e_i⊗e_j + e_j⊗e_i and e_j⊗e_i to e_i⊗e_j.  At n = q = 2 it
    is DJ_MATRIX; the FRT algebra of (kⁿ, Ř_q) is GL_q(n)'s.
    """
    q = Fraction(q)
    cells = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        cells[i * n + i][i * n + i] = q
        for j in range(i + 1, n):
            cells[i * n + j][i * n + j] = q - 1 / q
            cells[j * n + i][i * n + j] = 1
            cells[i * n + j][j * n + i] = 1
    return Matrix(cells)


def shifted_jimbo_space(n, q, shift):
    """(kⁿ, Ř_q + shift·I), Ř_q as jimbo_matrix builds it."""
    cells = jimbo_matrix(n, q).cells
    shifted = [[x + shift * (r == c) for c, x in enumerate(row)] for r, row in enumerate(cells)]
    return EquippedSpace(n, {2: Matrix(shifted)})


def bilinear_form_space(E, u):
    """(kⁿ, e·uᵀ), e and u the n×n arrays E and u flattened as (i, j) -> i·n + j.

    Im R is the line of e, so U of the space is the Dubois-Violette–Launer
    algebra of the form E, with the one relation Σ E_kl x_k x_l; R is not
    symmetric unless u is a multiple of e.
    """
    n = len(E)
    e = [x for row in E for x in row]
    v = [x for row in u for x in row]
    return EquippedSpace(n, {2: Matrix([[a * b for b in v] for a in e])})


def bilinear_form_draws(n, seed, count=3):
    """Yield count triples (V_E, E, u): E a nondegenerate and u a nonzero
    integer n×n array, entries drawn from -3..3 by random.Random(seed)."""
    rng = random.Random(seed)

    def draw():
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

    for _ in range(count):
        E = draw()
        while oracle_rank(E) < n:
            E = draw()
        u = draw()
        while not any(map(any, u)):
            u = draw()
        yield bilinear_form_space(E, u), E, u


def qcomm_space(qs, n):
    """kⁿ whose structure has column (i, j), i < j, equal to e_ij − q e_ji.

    The q's are taken in the order (0, 1), (0, 2), ..., (n − 2, n − 1);
    U of the space is the polynomial algebra with x_i x_j = q x_j x_i.
    """
    qs = iter(qs)
    cells = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(i + 1, n):
            cells[i * n + j][i * n + j] = 1
            cells[j * n + i][i * n + j] = -next(qs)
    return EquippedSpace(n, {2: Matrix(cells)})


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


@pytest.fixture(scope="session")
def product_file(tmp_path_factory):
    # The dim-9 product of two dense dim-3 spaces, as construct-rigidity
    # builds it: about 7.8 MB.  The two spaces are a.json and b.json beside it.
    # Built once per session: the file and construction tests share it.
    rng = random.Random(1)

    def entry():
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 2, 3)))

    def dense(size):
        return Matrix([[entry() for _ in range(size)] for _ in range(size)])

    a, b = (EquippedSpace(3, {2: dense(9), 3: dense(27)}) for _ in range(2))
    path = tmp_path_factory.mktemp("product") / "prod.json"
    write_space(path.with_name("a.json"), a)
    write_space(path.with_name("b.json"), b)
    write_space(path, boxtimes(a, b))
    assert path.stat().st_size > 7_000_000
    return path
