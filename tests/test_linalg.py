import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from eqspace import FreeElement, Matrix, Subspace, VerificationReport, column_space
from eqspace.linalg import TensorSum, _kron_sum_apply, kernel, kronecker
from conftest import QP_MATRIX
from oracles import dense_reduce_vector, naive_rref, oracle_contains


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


class TestKernel:
    def test_identity_has_zero_kernel(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_zero_matrix_has_full_kernel(self):
        assert kernel(Matrix.zero(2, 3)) == Subspace.full(3)

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
                assert all(x == 0 for x in m.apply(row))


class TestColumnSpace:
    def test_identity_full(self):
        assert column_space(Matrix.identity(3)) == Subspace.full(3)

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
        assert Subspace.full(3).first_outside(s.basis.cells) is None

    def test_unit_spans_sum_to_full_plane(self):
        a = Subspace.from_rows(2, [[1, 0]])
        b = Subspace.from_rows(2, [[0, 1]])
        assert sum_of(a, b) == Subspace.full(2)

    def test_equality_is_canonical(self):
        a = Subspace.from_rows(3, [[2, 4, 0], [1, 2, 1]])
        b = Subspace.from_rows(3, [[1, 2, 0], [3, 6, 7]])
        assert a == b
        assert a.basis.cells == b.basis.cells

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            Subspace.full(2).first_outside([(1, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            Subspace.zero(3).first_outside([(1, 0)])
        assert Subspace.zero(2) != Subspace.zero(3)

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
        assert Subspace.full(3).first_outside(vectors) is None
        assert Subspace.full(3).first_outside([]) is None

    def test_generator_is_consumed_lazily(self):
        span = Subspace.from_rows(2, [[1, 1]])
        seen = []

        def images():
            for v in [(2, 2), (1, 0), (0, 1)]:
                seen.append(v)
                yield v

        assert span.first_outside(images()) == 1
        assert seen == [(2, 2), (1, 0)]



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
                assert got == dense_reduce_vector(span, vec)
                assert span.first_outside([vec]) == (0 if any(got) else None)

    def test_zero_and_full_spans(self):
        rng = random.Random(43)
        for n in (1, 3, 6):
            for span in (Subspace.zero(n), Subspace.full(n)):
                for vec in self.vectors(rng, span, n):
                    assert span.reduce_vector(vec) == dense_reduce_vector(span, vec)
            assert Subspace.full(n).reduce_vector([Fraction(5, 2)] * n) == (0,) * n


def dense_tensor_sum(left, right):
    """left⊗k^b + k^a⊗right as Kronecker rows eliminated in k^(a·b)."""
    a, b = left.ambient_dim, right.ambient_dim
    rows = kronecker(left.basis, Matrix.identity(b)).cells
    rows += kronecker(Matrix.identity(a), right.basis).cells
    return Subspace.from_rows(a * b, rows)


class TestTensorSum:
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
            TensorSum(Subspace.full(2), Subspace.zero(3)),
            TensorSum(Subspace.zero(2), Subspace.full(3)),
            TensorSum(Subspace.full(2), Subspace.full(3)),
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
        target = TensorSum(Subspace.full(2), Subspace.zero(2))
        with pytest.raises(ValueError):
            target.first_outside([(1, 0, 0, 0), (1, 0, 0)])


class TestKronecker:
    def test_identity_factors(self):
        assert kronecker(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_unit_factor(self):
        m = Matrix([[0, 1], [0, 0]])
        assert kronecker(m, Matrix([[1]])) == m

    def test_mixed_product(self):
        rng = random.Random(1)
        for _ in range(10):
            a, b, c, d = (rand_matrix(rng, 2, 2) for _ in range(4))
            assert kronecker(a, b) * kronecker(c, d) == kronecker(a * c, b * d)

    def test_explicit_indexing(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 5], [6, 7]])
        k = kronecker(a, b)
        for i, j, p, q in [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)]:
            assert k[i * 2 + p, j * 2 + q] == a[i, j] * b[p, q]


def kron_sum(a, b):
    """Dense a⊗I + I⊗b for square a and b."""
    return kronecker(a, Matrix.identity(b.rows)) + kronecker(Matrix.identity(a.rows), b)


class TestKronApply:
    def test_matches_materialized_sum_on_seeded_shapes(self):
        rng = random.Random(17)
        for _ in range(40):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            a, b = rand_matrix(rng, p, p), rand_matrix(rng, q, q)
            vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p * q)]
            assert _kron_sum_apply(a, b, vec) == kron_sum(a, b).apply(vec)

    def test_apply_equals_product_with_a_column(self):
        rng = random.Random(23)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            vec = [rng.choice([0, 0, 1, Fraction(-2, 3)]) for _ in range(a.cols)]
            column = a * Matrix([[x] for x in vec], cols=1)
            assert a.apply(vec) == tuple(row[0] for row in column.cells)

    def test_empty_factors(self):
        a, b = Matrix.zero(0, 0), rand_matrix(random.Random(1), 3, 3)
        assert _kron_sum_apply(a, b, []) == kron_sum(a, b).apply([]) == ()
        assert _kron_sum_apply(b, a, []) == kron_sum(b, a).apply([]) == ()

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            _kron_sum_apply(Matrix.identity(2), Matrix.identity(2), [1, 0, 0])


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

    def test_from_rows_rejects_inexact_entries(self):
        for row in ([0.5, 1], [True, 1], [1, False], ["1", 0], [0, Decimal(2)]):
            with pytest.raises(TypeError):
                Subspace.from_rows(2, [row])

    def test_results_built_unchecked_match_the_checked_constructor(self):
        # Arithmetic results skip the constructor's checks; they must be
        # exactly what the checked constructor would build from their cells.
        rng = random.Random(8)
        a, b = rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3)
        empty = Matrix.zero(0, 3)
        results = [
            a + b, a - b, -a, a * b.transpose(), a.transpose(), kronecker(a, b),
            empty + empty, -empty, empty.transpose(), Matrix.zero(3, 0).transpose(),
        ]
        for m in results:
            assert m == Matrix(m.cells, cols=m.cols)
            assert all(type(x) in (int, Fraction) for row in m.cells for x in row)
            assert type(m.cells) is tuple and all(type(r) is tuple for r in m.cells)

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
            assert (a * b).transpose() == b.transpose() * a.transpose()


def test_rank_of_quantum_plane_structure():
    assert Subspace.from_rows(4, QP_MATRIX.cells).dim == 1


def _line():
    return Subspace.from_rows(2, [[1, 2]])


# Per class: two equal values built apart, a different value, and the fields.
RECORDS = {
    "Subspace": (_line, lambda: Subspace.full(2), ("ambient_dim", "basis")),
    "TensorSum": (
        lambda: TensorSum(_line(), Subspace.zero(1)),
        lambda: TensorSum(Subspace.zero(2), Subspace.zero(1)),
        ("left", "right"),
    ),
    "FreeElement": (
        lambda: FreeElement(2, (1, 0, 0, Fraction(1, 2))),
        lambda: FreeElement(1, (1, 0)),
        ("degree", "coords"),
    ),
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
        for kind in ("Subspace", "TensorSum", "FreeElement"):
            make, _, _ = RECORDS[kind]
            assert hash(make()) == hash(make())
        assert hash(VerificationReport("check", True)) == hash(VerificationReport("check", True))

    def test_validation(self):
        with pytest.raises(ValueError):
            Subspace(2, Matrix([[2, 0]]))
        with pytest.raises(ValueError):
            Subspace(3, Matrix([[1, 0]]))
        with pytest.raises(ValueError):
            VerificationReport("check", False)
