import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest

from eqspace import Matrix, PresentedAlgebra, Subspace, VerificationReport, column_space
from eqspace.linalg import _rref_rows, kernel
from conftest import QP_MATRIX
from oracles import (
    TensorSum,
    dense_apply,
    dense_is_zero,
    dense_neg,
    dense_reduce_vector,
    dense_transpose,
    full_space,
    matrix_kronecker,
    matrix_mul,
    naive_rref,
    normal_form,
    oracle_contains,
)


def rand_matrix(rng, rows, cols):
    return Matrix(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols=cols,
    )


def rref(m):
    """Canonical reduced row-echelon basis of the row space of m."""
    return Subspace.from_rows(m.cols, m.cells).basis


class TestRref:
    def test_identity(self):
        assert rref(Matrix.identity(2)) == Matrix.identity(2)

    def test_scaling_normalization(self):
        assert rref(Matrix([[2, 4]])) == Matrix([[1, 2]])

    def test_duplicate_rows_dropped(self):
        assert rref(Matrix([[1, 1], [1, 1]])) == Matrix([[1, 1]])

    def test_zero_matrix(self):
        out = rref(Matrix.zero(3, 2))
        assert out.rows == 0 and out.cols == 2

    def test_idempotent_and_row_space_preserved(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rand_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
            red = rref(m)
            assert rref(red) == red
            a = Subspace.from_rows(m.cols, m.cells)
            b = Subspace.from_rows(m.cols, red.cells)
            assert a == b

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            got = [[Fraction(x) for x in row] for row in rref(m).cells]
            assert got == naive_rref(m.cells, m.cols)

    @staticmethod
    def assert_rref_matches_oracle(rows, ncols):
        got = Subspace.from_rows(ncols, rows).basis.cells
        assert [[Fraction(x) for x in row] for row in got] == naive_rref(rows, ncols)

    def test_large_integer_rows_match_oracle(self):
        # Cross products of entries near 10^6 pass 2^96 within a few steps
        # of elimination; four rows are combinations of others, so the
        # echelon form has rank 14 and fractional entries.
        rng = random.Random(23)
        rows = [[rng.randint(-10**6, 10**6) for _ in range(18)] for _ in range(14)]
        for _ in range(4):
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-9, 9), rng.randint(1, 9)
            rows.insert(rng.randrange(len(rows)), [s * x + t * y for x, y in zip(a, b)])
        self.assert_rref_matches_oracle(rows, 18)

    def test_coprime_denominator_rows_match_oracle(self):
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        rng = random.Random(29)
        rows = [
            [Fraction(rng.randint(-50, 50), rng.choice(primes)) for _ in range(12)]
            for _ in range(9)
        ]
        self.assert_rref_matches_oracle(rows, 12)

    def test_wide_sparse_rows_match_oracle(self):
        # Shaped like the rows of the normal-word recursion: wide, with a few
        # nonzeros each, drawn from a pool of columns so the rows interact.
        rng = random.Random(31)
        width = 320
        pool = rng.sample(range(width), 48)
        rows = []
        for _ in range(40):
            row = [0] * width
            for col in rng.sample(pool, rng.randint(1, 4)):
                row[col] = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 7)))
            rows.append(row)
        self.assert_rref_matches_oracle(rows, width)


class TestKernel:
    def test_identity_has_zero_kernel(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_zero_matrix_has_full_kernel(self):
        assert kernel(Matrix.zero(2, 3)) == full_space(3)

    def test_single_relation(self):
        got = kernel(Matrix([[1, 2]]))
        assert got == Subspace.from_rows(2, [[-2, 1]])

    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert column_space(m).dim + kernel(m).dim == m.cols

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(5)
        for _ in range(20):
            m = rand_matrix(rng, 3, 4)
            for row in kernel(m).basis.cells:
                assert all(x == 0 for x in dense_apply(m.cells, row))


class TestColumnSpace:
    def test_identity_full(self):
        assert column_space(Matrix.identity(3)) == full_space(3)

    def test_zero_matrix(self):
        assert column_space(Matrix.zero(3, 2)) == Subspace.zero(3)

    def test_quantum_plane_column(self):
        got = column_space(QP_MATRIX)
        assert got == Subspace.from_rows(4, [[0, 1, -2, 0]])


def sum_of(a, b):
    return Subspace.from_rows(a.ambient_dim, a.basis.cells + b.basis.cells)


class TestSubspaces:
    def test_sum_idempotent(self):
        s = Subspace.from_rows(3, [[1, 0, 2], [0, 1, 1]])
        assert sum_of(s, s) == s

    def test_full_contains_anything(self):
        s = Subspace.from_rows(3, [[1, 5, Fraction(1, 2)]])
        assert full_space(3).first_outside(s.basis.cells) is None

    def test_unit_spans_sum_to_full_plane(self):
        a = Subspace.from_rows(2, [[1, 0]])
        b = Subspace.from_rows(2, [[0, 1]])
        assert sum_of(a, b) == full_space(2)

    def test_equality_is_canonical(self):
        a = Subspace.from_rows(3, [[2, 4, 0], [1, 2, 1]])
        b = Subspace.from_rows(3, [[1, 2, 0], [3, 6, 7]])
        assert a == b
        assert a.basis.cells == b.basis.cells

    def test_constructor_stores_rows_with_columns_ascending(self):
        # M's second row is {3: 3, 1: 1}; the stored basis row is not.
        M = Matrix._trusted([{0: 1, 3: 2}, {3: 3, 1: 1}], 4)
        s = Subspace(4, M)
        assert s == Subspace.from_rows(4, M.nonzeros)
        assert [list(row) for row in s.basis.nonzeros] == [[0, 3], [1, 3]]
        assert s.pivot_columns() == [0, 1]

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            full_space(2).first_outside([(1, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            Subspace.zero(3).first_outside([(1, 0)])
        assert Subspace.zero(2) != Subspace.zero(3)

    def test_from_rows_rejects_rows_of_another_width(self):
        # A zero row of the wrong width is rejected too, not dropped.
        with pytest.raises(ValueError):
            Subspace.from_rows(3, [[1, 1, 1], [0, 0]])
        with pytest.raises(ValueError):
            Subspace.from_rows(3, [[1, 0, 0], [2]])
        with pytest.raises(ValueError):
            Subspace.from_rows(2, iter([[1, 0, 0]]))
        # A sparse row must name columns inside the ambient space.
        for row in ({2: 1}, {-1: 1}, {0: 1, 5: 2}):
            with pytest.raises(ValueError):
                Subspace.from_rows(2, [row])
            with pytest.raises(ValueError):
                full_space(2).first_outside([row])

    def test_containment_by_reduction(self):
        big = Subspace.from_rows(3, [[1, 0, 1], [0, 1, 1]])
        small = Subspace.from_rows(3, [[1, 1, 2]])
        assert big.first_outside(small.basis.cells) is None
        assert small.first_outside(big.basis.cells) == 0


class TestFirstOutside:
    def test_matches_oracle_on_random_spans(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(1, 5)
            span_rows = rand_matrix(rng, rng.randint(0, n + 1), n).cells
            span = Subspace.from_rows(n, span_rows)
            vectors = list(rand_matrix(rng, rng.randint(0, 3), n).cells)
            for _ in range(2):
                coeffs = [rng.randint(-2, 2) for _ in span_rows]
                vectors.append(
                    [sum(c * r[j] for c, r in zip(coeffs, span_rows)) for j in range(n)]
                )
            rng.shuffle(vectors)
            expected = next(
                (i for i, v in enumerate(vectors) if not oracle_contains(span_rows, v)),
                None,
            )
            assert span.first_outside(vectors) == expected

    def test_zero_and_full_spans(self):
        vectors = [(0, 0, 0), (1, 0, 0), (0, Fraction(1, 2), 3)]
        assert Subspace.zero(3).first_outside(vectors) == 1
        assert Subspace.zero(3).first_outside([(0, 0, 0)]) is None
        assert full_space(3).first_outside(vectors) is None
        assert full_space(3).first_outside([]) is None

    def test_generator_is_consumed_lazily(self):
        span = Subspace.from_rows(2, [[1, 1]])
        seen = []

        def images():
            for v in [(2, 2), (1, 0), (0, 1)]:
                seen.append(v)
                yield v

        assert span.first_outside(images()) == 1
        assert seen == [(2, 2), (1, 0)]



def densify(row, n):
    """A dict of nonzeros as a dense tuple of length n."""
    return tuple(row.get(j, 0) for j in range(n))


def sparse_row(vec):
    return {j: x for j, x in enumerate(vec) if x != 0}


class TestReduceVectorAgainstDenseLoop:
    """The pivot-driven residue equals the dense row-by-row loop, entry by entry."""

    @staticmethod
    def vectors(rng, span, n):
        rows = span.basis.cells
        out = [[rng.choice((0, Fraction(0), 1, -2, Fraction(3, 2))) for _ in range(n)]]
        out.append([Fraction(0)] * n)
        for _ in range(2):
            coeffs = [rng.choice((0, 1, -1, Fraction(1, 3))) for _ in rows]
            out.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                        for j in range(n)])
        return out

    def test_seeded_spans(self):
        rng = random.Random(41)
        for trial in range(120):
            n = rng.randint(1, 7)
            rows = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 1))]
            if trial % 2:
                rows = [[Fraction(x, rng.randint(1, 3)) for x in r] for r in rows]
            span = Subspace.from_rows(n, rows)
            for vec in self.vectors(rng, span, n):
                got = span.reduce_vector(vec)
                assert densify(got, n) == dense_reduce_vector(span, vec)
                assert all(x != 0 for x in got.values())
                assert span.reduce_vector(sparse_row(vec)) == got
                assert span.first_outside([vec]) == (0 if got else None)

    def test_zero_and_full_spans(self):
        rng = random.Random(43)
        for n in (1, 3, 6):
            for span in (Subspace.zero(n), full_space(n)):
                for vec in self.vectors(rng, span, n):
                    got = densify(span.reduce_vector(vec), n)
                    assert got == dense_reduce_vector(span, vec)
            assert full_space(n).reduce_vector([Fraction(5, 2)] * n) == {}


def dense_tensor_sum(left, right):
    """left⊗k^b + k^a⊗right as Kronecker rows eliminated in k^(a·b)."""
    a, b = left.ambient_dim, right.ambient_dim
    rows = matrix_kronecker(left.basis, Matrix.identity(b)).cells
    rows += matrix_kronecker(Matrix.identity(a), right.basis).cells
    return Subspace.from_rows(a * b, rows)


class TestTensorSum:
    """The reference for the normal-form tensor test, against dense spans."""

    def test_matches_dense_span_on_random_spans(self):
        rng = random.Random(23)
        for _ in range(60):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            left = Subspace.from_rows(a, rand_matrix(rng, rng.randint(0, a + 1), a).cells)
            right = Subspace.from_rows(b, rand_matrix(rng, rng.randint(0, b + 1), b).cells)
            dense = dense_tensor_sum(left, right)
            target = TensorSum(left, right)
            assert target.dim == dense.dim
            assert target.dim == (
                left.dim * b + a * right.dim - left.dim * right.dim
            )
            vectors = list(rand_matrix(rng, rng.randint(0, 2), a * b).cells)
            for _ in range(3):
                coeffs = [rng.randint(-2, 2) for _ in dense.basis.cells]
                vectors.append(
                    [
                        sum(c * r[j] for c, r in zip(coeffs, dense.basis.cells))
                        for j in range(a * b)
                    ]
                )
            rng.shuffle(vectors)
            assert target.first_outside(vectors) == dense.first_outside(vectors)
            for vec in vectors:
                assert (target.first_outside([vec]) is None) == oracle_contains(
                    dense.basis.cells, vec
                )

    def test_zero_and_full_spans(self):
        vectors = [(0,) * 6, (0, 0, 0, 0, 1, 0), (1, 2, 3, 4, 5, Fraction(1, 2))]
        nothing = TensorSum(Subspace.zero(2), Subspace.zero(3))
        assert nothing.dim == 0
        assert nothing.first_outside(vectors) == 1
        assert nothing.first_outside(vectors[:1]) is None
        for target in (
            TensorSum(full_space(2), Subspace.zero(3)),
            TensorSum(Subspace.zero(2), full_space(3)),
            TensorSum(full_space(2), full_space(3)),
        ):
            assert target.dim == 6
            assert target.first_outside(vectors) is None
            assert target.first_outside([]) is None

    def test_one_sided_spans(self):
        # span{e0}⊗k^2: a vector is inside when its second block is zero.
        left_only = TensorSum(Subspace.from_rows(2, [[1, 0]]), Subspace.zero(2))
        assert left_only.dim == 2
        assert left_only.first_outside([(3, -1, 0, 0), (0, 0, 0, 1)]) == 1
        # k^2⊗span{e0 + e1}: each block must be a multiple of (1, 1).
        right_only = TensorSum(Subspace.zero(2), Subspace.from_rows(2, [[1, 1]]))
        assert right_only.dim == 2
        assert right_only.first_outside([(2, 2, -1, -1), (1, 1, 1, 0)]) == 1

    def test_generator_is_consumed_lazily(self):
        target = TensorSum(Subspace.from_rows(2, [[1, 1]]), Subspace.zero(1))
        seen = []

        def images():
            for v in [(2, 2), (1, 0), (0, 1)]:
                seen.append(v)
                yield v

        assert target.first_outside(images()) == 1
        assert seen == [(2, 2), (1, 0)]

    def test_wrong_length_raises(self):
        target = TensorSum(full_space(2), Subspace.zero(2))
        with pytest.raises(ValueError):
            target.first_outside([(1, 0, 0, 0), (1, 0, 0)])


class TestKronecker:
    """The oracle Kronecker product and matrix product that the references build on."""

    def test_identity_factors(self):
        assert matrix_kronecker(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_unit_factor(self):
        m = Matrix([[0, 1], [0, 0]])
        assert matrix_kronecker(m, Matrix([[1]])) == m

    def test_mixed_product(self):
        rng = random.Random(1)
        for _ in range(10):
            a, b, c, d = (rand_matrix(rng, 2, 2) for _ in range(4))
            left = matrix_mul(matrix_kronecker(a, b), matrix_kronecker(c, d))
            assert left == matrix_kronecker(matrix_mul(a, c), matrix_mul(b, d))

    def test_explicit_indexing(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 5], [6, 7]])
        k = matrix_kronecker(a, b)
        for i, j, p, q in [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)]:
            assert k[i * 2 + p, j * 2 + q] == a[i, j] * b[p, q]


class TestExactScalars:
    def test_matrix_rejects_inexact_entries(self):
        for bad in (1.5, True, "1", Decimal(1)):
            with pytest.raises(TypeError):
                Matrix([[bad, 2]])
            with pytest.raises(TypeError):
                Matrix([[0, 0], [0, bad]])

    def test_matrix_accepts_int_and_fraction(self):
        m = Matrix([[1, Fraction(1, 2)], [Fraction(2), -3]])
        assert [type(x) for row in m.cells for x in row] == [int, Fraction, Fraction, int]
        m = Matrix([[1, Fraction(2)]])
        assert [type(x) for x in m.nonzeros[0].values()] == [int, Fraction]

    def test_inexact_zeros_are_refused_too(self):
        # A constructor that only looked at the nonzeros would accept these.
        for bad in (0.0, False, Decimal(0)):
            with pytest.raises(TypeError):
                Matrix([[bad, 1]])
        for row in ([0.0, 1], [False, 1], {0: 0.0, 1: 1}):
            with pytest.raises(TypeError):
                Subspace.from_rows(2, [row])

    def test_from_rows_rejects_inexact_entries(self):
        for row in ([0.5, 1], [True, 1], [1, False], ["1", 0], [0, Decimal(2)]):
            with pytest.raises(TypeError):
                Subspace.from_rows(2, [row])

    def test_results_built_unchecked_match_the_checked_constructor(self):
        # Arithmetic results skip the constructor's checks; they must be
        # exactly what the checked constructor would build from their cells.
        rng = random.Random(8)
        a = rand_matrix(rng, 2, 3)
        empty = Matrix.zero(0, 3)
        results = [
            -a, a.transpose(), -empty, empty.transpose(), Matrix.zero(3, 0).transpose(),
        ]
        for m in results:
            assert m == Matrix(m.cells, cols=m.cols)
            assert all(type(x) in (int, Fraction) for row in m.cells for x in row)
            assert type(m.cells) is tuple and all(type(r) is tuple for r in m.cells)

    # Each call below was once worked out in floats, or failed inside
    # elimination, instead of refusing the input.
    def test_first_outside_refuses_floats(self):
        with pytest.raises(TypeError):
            Subspace.from_rows(2, [[1, 1]]).first_outside([[0.1 + 0.2, 0.3]])

    def test_reduce_vector_refuses_floats(self):
        with pytest.raises(TypeError):
            Subspace.from_rows(2, [[1, 1]]).reduce_vector([1.5, 1.5])

    def test_reduce_vector_refuses_a_float_column(self):
        with pytest.raises(TypeError, match="columns must be int"):
            Subspace.from_rows(3, [[1, 0, 0]]).reduce_vector({0.5: 1})

    def test_from_rows_refuses_a_float_column(self):
        with pytest.raises(TypeError, match="columns must be int"):
            Subspace.from_rows(3, [{0.5: 1}])

    def test_normal_form_refuses_floats(self):
        with pytest.raises(TypeError):
            normal_form(PresentedAlgebra(2), 2, (0.5, 0.25, 0, 0))

    def test_from_rows_accepts_int_and_fraction(self):
        assert Subspace.from_rows(2, [[2, Fraction(1, 2)]]).basis == Matrix(
            [[1, Fraction(1, 4)]]
        )


class TestTranspose:
    def test_symmetric_fixed(self):
        m = Matrix([[1, 2], [2, 3]])
        assert m.transpose() == m

    def test_involution(self):
        rng = random.Random(2)
        m = rand_matrix(rng, 3, 5)
        assert m.transpose().transpose() == m

    def test_antihomomorphism(self):
        rng = random.Random(4)
        for _ in range(10):
            a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
            assert matrix_mul(a, b).transpose() == matrix_mul(b.transpose(), a.transpose())


def test_rank_of_quantum_plane_structure():
    assert Subspace.from_rows(4, QP_MATRIX.cells).dim == 1


def _line():
    return Subspace.from_rows(2, [[1, 2]])


# Per class: two equal values built apart, a different value, and the fields.
RECORDS = {
    "Subspace": (_line, lambda: full_space(2), ("ambient_dim", "basis")),
    "VerificationReport": (
        lambda: VerificationReport("check", True, dimensions={"n": 1}),
        lambda: VerificationReport(name="check", passed=False, witness={"v": 1}),
        ("name", "passed", "witness", "dimensions"),
    ),
}


class TestValueRecords:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_immutable_values(self, kind):
        make, other, fields = RECORDS[kind]
        a, b = make(), make()
        assert a == b and a is not b
        assert a != other() and a != tuple(getattr(a, f) for f in fields)
        assert repr(a).startswith(f"{kind}(")
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(b, f))
            with pytest.raises(AttributeError):
                delattr(a, f)
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert twin == a

    def test_hash_follows_equality(self):
        make, _, _ = RECORDS["Subspace"]
        assert hash(make()) == hash(make())
        assert hash(VerificationReport("check", True)) == hash(VerificationReport("check", True))

    def test_validation(self):
        with pytest.raises(ValueError):
            Subspace(2, Matrix([[2, 0]]))
        for not_rref in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [1, 0]]):
            with pytest.raises(ValueError):
                Subspace(2, Matrix(not_rref))
        assert Subspace(3, Matrix([[1, 2, 0], [0, 0, 1]])).pivot_columns() == [0, 2]
        with pytest.raises(ValueError):
            Subspace(3, Matrix([[1, 0]]))
        with pytest.raises(ValueError):
            VerificationReport("check", False)


def seeded_cells(rng, rows, cols, density, kind):
    """Dense rows with about density nonzeros; kind "int", "frac" or "mixed"."""
    def entry():
        if rng.random() >= density:
            return rng.choice((0, Fraction(0))) if kind != "int" else 0
        n = rng.choice((-3, -2, -1, 1, 2, 5))
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return n
        return Fraction(n, rng.choice((1, 2, 3)))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def matrix_pairs():
    """Seeded (a_cells, b_cells, rows, cols) of one shape, every shape kind."""
    rng = random.Random(2026)
    shapes = [(0, 4), (4, 0), (0, 0), (3, 5), (5, 3), (6, 6), (1, 7), (12, 12)]
    out = []
    for rows, cols in shapes:
        for density in (1.0, 0.07, 0.4):
            for kind in ("int", "frac", "mixed"):
                a = seeded_cells(rng, rows, cols, density, kind)
                b = seeded_cells(rng, rows, cols, density, kind)
                out.append((a, b, rows, cols))
                # b equal to -a in part, or in full.
                cancel = [[-x if rng.random() < 0.6 else y for x, y in zip(ra, rb)]
                          for ra, rb in zip(a, b)]
                out.append((a, cancel, rows, cols))
                out.append((a, dense_neg(a), rows, cols))
    return out


def same_matrix(got, cells, cols):
    """got equals, and hashes as, what the checked constructor builds from cells."""
    want = Matrix(cells, cols=cols)
    assert got == want and hash(got) == hash(want)
    assert (got.rows, got.cols) == (len(cells), cols)
    assert got.cells == tuple(map(tuple, cells))
    assert all(x != 0 for row in got.nonzeros for x in row.values())


class TestSparseMatrixAgainstDenseOracles:
    """Every Matrix operation equals the dense reference on seeded shapes."""

    def test_constructor_keeps_nonzeros_only(self):
        for a, _, rows, cols in matrix_pairs():
            m = Matrix(a, cols=cols)
            assert m.nonzeros == tuple(
                {j: x for j, x in enumerate(r) if x != 0} for r in a
            )
            assert m.cells == tuple(map(tuple, a))
            assert all(m[i, j] == a[i][j] for i in range(rows) for j in range(cols))
            assert m.is_zero() == dense_is_zero(a)

    def test_elementwise_operations(self):
        for a, _, _, cols in matrix_pairs():
            same_matrix(-Matrix(a, cols=cols), dense_neg(a), cols)

    def test_transpose(self):
        for a, _, rows, cols in matrix_pairs():
            same_matrix(Matrix(a, cols=cols).transpose(), dense_transpose(a, cols), rows)

    def test_equal_values_hash_equal_whatever_the_path(self):
        # Row dicts filled in different orders, and Fraction(2) against 2.
        a = Matrix([[1, 0, Fraction(2)], [0, 3, 0]])
        b = Matrix([[1, 0, 2], [0, 3, 0]]).transpose().transpose()
        c = -(-a)
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert a != Matrix([[1, 0, 2], [0, 3, 1]])
        assert Matrix.zero(0, 3) != Matrix.zero(0, 2)


def assert_canonical_integer_rows(rows, expected, ncols):
    """rows are primitive integer rows, positive lead first, columns
    ascending, that divided by their leads are the rows of expected."""
    for row in rows:
        assert row and all(type(x) is int and x != 0 for x in row.values())
        assert gcd(*row.values()) == 1
        assert list(row) == sorted(row)
        assert row[min(row)] > 0
    divided = [{j: Fraction(x, row[min(row)]) for j, x in row.items()} for row in rows]
    assert [densify(r, ncols) for r in divided] == [tuple(r) for r in expected]


def integer_row(vec):
    """The nonzeros of the least positive multiple of vec with integer entries."""
    m = lcm(*(Fraction(x).denominator for x in vec))
    return {j: int(x * m) for j, x in enumerate(vec) if x}


class TestRrefRows:
    """Subspace.from_rows takes dense and sparse rows, zeros included, and
    the core _rref_rows nonzero integer rows; both give the naive oracle's
    basis, the core as canonical integer rows."""

    def test_sparse_and_dense_rows_match_oracle(self):
        rng = random.Random(37)
        for trial in range(80):
            ncols = rng.randint(1, 12)
            density = (1.0, 0.07, 0.3)[trial % 3]
            rows = seeded_cells(rng, rng.randint(0, 8), ncols, density, "mixed")
            if rows and trial % 4 == 0:
                rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
            expected = [tuple(r) for r in naive_rref(rows, ncols)] if rows else []
            # Sparse rows may carry explicit zeros, and a dict may hold only zeros.
            with_zeros = [dict(enumerate(r)) for r in rows] + [{rng.randrange(ncols): 0}]
            for given in (rows, [sparse_row(r) for r in rows], with_zeros):
                span = Subspace.from_rows(ncols, given)
                assert [densify(r, ncols) for r in span.basis.nonzeros] == expected
            ints = [integer_row(r) for r in rows]
            assert_canonical_integer_rows(_rref_rows(ints), expected, ncols)
            # The same rows with column j at j·2^36: no step may visit every column.
            wide = 2**36
            basis = _rref_rows([{j * wide: x for j, x in r.items()} for r in ints])
            assert all(j % wide == 0 for r in basis for j in r)
            narrow = [{j // wide: x for j, x in r.items()} for r in basis]
            assert_canonical_integer_rows(narrow, expected, ncols)

    def test_ties_and_negative_leads_in_one_column(self):
        rows = [[-2, 1, 0, 3], [2, 0, 1, -1], [-2, 3, 5, 0], [4, -1, 0, 0], [-1, 0, 0, 2]]
        basis = _rref_rows([sparse_row(r) for r in rows])
        assert_canonical_integer_rows(basis, naive_rref(rows, 4), 4)
        assert [min(r) for r in basis] == [0, 1, 2, 3]
        span = Subspace.from_rows(4, rows)
        assert [list(r) for r in span.basis.cells] == naive_rref(rows, 4)
        assert span.pivot_columns() == [0, 1, 2, 3]

    def test_forward_pass_stops_when_every_row_is_a_pivot(self):
        # Without the stop this walks 2^40 columns.
        assert Subspace.from_rows(2**40, []) == Subspace.zero(2**40)
        assert Subspace.from_rows(2**40, []).dim == 0

    def test_wide_sparse_row_is_never_widened(self):
        # A dense working copy of this row would hold 2^40 entries.
        span = Subspace.from_rows(2**40, [{0: 2, 5: 1}])
        assert span.basis.nonzeros == ({0: 1, 5: Fraction(1, 2)},)
        assert span.pivot_columns() == [0]

    def test_subspace_takes_the_pivots_of_the_elimination(self):
        rng = random.Random(41)
        for _ in range(30):
            rows = seeded_cells(rng, 4, 6, 0.5, "mixed")
            span = Subspace.from_rows(6, rows)
            checked = Subspace(6, span.basis)
            assert checked == span
            assert checked.pivot_columns() == span.pivot_columns()
            assert span.pivot_columns() == [min(r) for r in span.basis.nonzeros]
