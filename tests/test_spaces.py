import itertools
import random
from fractions import Fraction

import pytest

from eqspace import (
    EquippedSpace,
    Matrix,
    VerificationReport,
    boxtimes,
    coev_map,
    column_space,
    dagger,
    ev_map,
    hom_space,
)
from eqspace import spaces, suites
from eqspace.fileio import read_space, write_space
from eqspace.sampling import random_equipped, random_matrix, random_rational
from eqspace.spaces import boxtimes_degree
from eqspace.suites import _pairing_rows_sum, _zigzags, coev_kron_identity, snake_identity
from oracles import (
    boxtimes_conjugation,
    check_morphism,
    coev_column,
    coev_reference,
    dumps_reference,
    encode_digits,
    ev_reference,
    ev_row,
    flip_table,
    matrix_kronecker,
    matrix_mul,
    oracle_rank,
    permutation_matrix,
    snake_composites,
    snake_reference,
    space_to_dict,
)
from test_golden import INPUTS, _unsigned_dual


class TestConstruction:
    def test_degree_one_must_be_zero(self):
        EquippedSpace(2, {1: Matrix.zero(2, 2)})
        with pytest.raises(ValueError):
            EquippedSpace(2, {1: Matrix.identity(2)})

    def test_size_validation(self):
        with pytest.raises(ValueError):
            EquippedSpace(2, {2: Matrix.identity(3)})

    def test_absent_degrees_are_zero(self):
        V = EquippedSpace(2, {})
        assert V.structure_at(2) == Matrix.zero(4, 4)


class TestUnit:
    def test_unit_dimension(self):
        assert EquippedSpace(1, {}).dim == 1

    def test_dagger_of_unit(self):
        assert dagger(EquippedSpace(1, {})) == EquippedSpace(1, {})

    def test_left_and_right_unit_laws(self, qp):
        left = boxtimes(EquippedSpace(1, {}), qp)
        right = boxtimes(qp, EquippedSpace(1, {}))
        assert left.structure_at(2) == qp.structure_at(2)
        assert right.structure_at(2) == qp.structure_at(2)


class TestMonoidalCoherence:
    """The package's index encodings make the coherence maps of the rigid
    monoidal category identities, so each law holds with ==, on random
    spaces of mixed supports."""

    @staticmethod
    def triples():
        for seed in range(20):
            rng = random.Random(seed)
            supports = [rng.choice([(2,), (3,), (2, 3)]) for _ in range(3)]
            yield [random_equipped(rng, rng.randint(1, 2 if 3 in s else 3), s) for s in supports]

    def test_product_is_associative(self):
        for A, B, C in self.triples():
            assert boxtimes(boxtimes(A, B), C) == boxtimes(A, boxtimes(B, C))

    def test_hom_from_a_product(self):
        for A, B, C in self.triples():
            assert hom_space(boxtimes(A, B), C) == boxtimes(dagger(A), hom_space(B, C))

    def test_hom_into_a_product(self):
        for A, B, C in self.triples():
            assert hom_space(C, boxtimes(A, B)) == boxtimes(hom_space(C, A), B)

    def test_hom_into_the_unit_is_the_dual(self):
        unit = EquippedSpace(1, {})
        for V, _, _ in self.triples():
            assert hom_space(V, unit) == dagger(V)


class TestBoxtimes:
    def test_zero_structures(self):
        V = EquippedSpace(2, {2: Matrix.zero(4, 4)})
        W = EquippedSpace(3, {})
        got = boxtimes(V, W)
        assert got.dim == 6
        assert got.structure_at(2).is_zero()

    def test_support_union(self):
        V = EquippedSpace(2, {2: Matrix.identity(4)})
        W = EquippedSpace(2, {3: Matrix.identity(8)})
        assert boxtimes(V, W).support == (2, 3)

    def test_quantum_plane_square_rank(self, qp):
        # Frozen from the independent rank oracle.
        got = boxtimes(qp, qp).structure_at(2)
        assert column_space(got).dim == 7
        assert oracle_rank([list(r) for r in got.cells]) == 7

    def test_fast_path_agrees_with_conjugation(self):
        rng = random.Random(21)
        cases = [(1, 2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 1, 3), (2, 1, 4), (1, 2, 4)]
        for dv, dw, n in cases:
            R = Matrix(
                [[rng.randint(-3, 3) for _ in range(dv**n)] for _ in range(dv**n)]
            )
            S = Matrix(
                [[rng.randint(-3, 3) for _ in range(dw**n)] for _ in range(dw**n)]
            )
            assert boxtimes_degree(R, S, dv, dw, n) == boxtimes_conjugation(R, S, dv, dw, n)

    def test_diagonals_on_both_sides_add_and_cancel(self):
        # Diagonal cells of R⊗I and I⊗S meet; R[0,0] = -S[1,1] cancels one exactly.
        half = Fraction(1, 2)
        R = Matrix(
            [[half, 0, 1, 0], [0, 2, 0, 0], [0, 0, -1, 0], [3, 0, 0, Fraction(2, 3)]]
        )
        S = Matrix([[1, 0, 4], [0, -half, 0], [Fraction(-1, 3), 0, 5]])
        built = boxtimes_degree(R, S, 4, 3, 1)
        assert built == boxtimes_conjugation(R, S, 4, 3, 1)
        assert built[1, 1] == 0 and built[0, 0] == Fraction(3, 2)
        rng = random.Random(23)
        for dv, dw, n in [(2, 2, 2), (2, 3, 1), (3, 2, 2)]:
            R = random_matrix(rng, dv**n, dv**n)
            S = random_matrix(rng, dw**n, dw**n)
            cells = [list(row) for row in S.cells]
            cells[0][0] = -R[0, 0]  # cancels in cell ((0, 0), (0, 0))
            S = Matrix(cells)
            built = boxtimes_degree(R, S, dv, dw, n)
            assert built == boxtimes_conjugation(R, S, dv, dw, n)
            assert built[0, 0] == 0

    def test_pairing_rows_sum_equals_the_rows_of_the_conjugation(self):
        # The rows of word pairs (J,J), i.e. pair digits (j,j), of the
        # literal φ⁻¹(R⊗I + I⊗S)φ, summed.  Random factors leave the sum
        # nonzero, as in every failing ev/coev witness.
        rng = random.Random(29)

        def draw(size, density):
            return Matrix([
                [random_rational(rng) if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)
            ])

        def pairing_sum(R, S, d, n):
            cells = boxtimes_conjugation(R, S, d, d, n).cells
            total = [0] * len(cells)
            for word in itertools.product(range(d), repeat=n):
                row = cells[encode_digits([j * d + j for j in word], d * d)]
                total = [x + y for x, y in zip(total, row)]
            return {c: x for c, x in enumerate(total) if x != 0}

        for d in (1, 2, 3):
            for n in (1, 2, 3):
                for density in (1.0, 0.3):
                    R, S = draw(d**n, density), draw(d**n, density)
                    want = pairing_sum(R, S, d, n)
                    assert _pairing_rows_sum(R, S, d, n) == want
                    if density == 1.0:
                        assert want
        # R[J,J] + S[J,J] = 0 cancels the diagonal of row (J,J), the only
        # row of the sum with a nonzero in column (J,J).
        R = draw(4, 1.0)
        cells = [list(row) for row in draw(4, 1.0).cells]
        cells[3][3] = -R[3, 3]
        S = Matrix(cells)
        got = _pairing_rows_sum(R, S, 2, 2)
        assert got == pairing_sum(R, S, 2, 2)
        assert encode_digits([3, 3], 4) not in got and got


class TestDagger:
    def test_row_indices_past_one_byte(self):
        # _dual_columns packs each row index in four bytes; indices that
        # need two and three of them come back whole and in order.
        rows = [{} for _ in range(70_001)]
        rows[300], rows[70_000] = {3: 5}, {0: Fraction(1, 2), 3: -5}
        got = spaces._dual(rows, 4)
        assert got.rows == 4 and got.cols == 70_001
        assert got.nonzeros == ({70_000: Fraction(-1, 2)}, {}, {}, {300: -5, 70_000: 5})
        assert list(got.nonzeros[3]) == [300, 70_000]

    def test_involution_on_the_nose(self):
        rng = random.Random(3)
        V = random_equipped(rng, 2, (2, 3))
        again = dagger(dagger(V))
        for n in V.support:
            assert again.structure_at(n) == V.structure_at(n)

    def test_zero_structure(self):
        V = EquippedSpace(2, {2: Matrix.zero(4, 4)})
        assert dagger(V).structure_at(2).is_zero()

    def test_each_distinct_entry_negated_once(self, tmp_path):
        # 2 and Fraction(2, 1) are equal and hash alike, and each keeps its
        # type; equal entries of one type come out as one object, though
        # they go in as distinct ones.
        half, two = Fraction(1, 2), Fraction(2, 1)
        cells = [
            [2, Fraction(2, 1), Fraction(1, 2), 0],
            [half, 2, 0, two],
            [0, 0, 0, 0],
            [2, Fraction(1, 2), Fraction(2, 1), half],
        ]
        V = EquippedSpace(2, {2: Matrix(cells)})
        R, D = V.structure_at(2), dagger(V).structure_at(2)
        shared = {}
        for i, row in enumerate(R.nonzeros):
            for j, x in row.items():
                y = D.nonzeros[j][i]
                assert y == -x and type(y) is type(x)
                assert shared.setdefault((y, type(y)), y) is y
        assert len(shared) == 3 and sum(map(len, D.nonzeros)) == sum(map(len, R.nonzeros))
        again = dagger(dagger(V))
        assert again == V
        def typed(mat):
            return [sorted((j, type(x).__name__) for j, x in row.items()) for row in mat.nonzeros]

        assert typed(again.structure_at(2)) == typed(R)
        write_space(tmp_path / "v.json", V)
        write_space(tmp_path / "again.json", again)
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "v.json").read_bytes()

    def test_entries_made_and_dropped_row_by_row(self, tmp_path):
        # Each row is made of fresh Fractions, equal within a row and new in
        # value from row to row, and dropped once the next row is made, so
        # a later row's entries may sit at the addresses of an earlier
        # row's.  A memo keyed by id must hold what it keys.
        size = 16
        cells = [[Fraction(i + 1, 3) if (i + j) % 3 else 0 for j in range(size)] for i in range(size)]

        def fresh_rows():
            for row in cells:
                yield {j: Fraction(x.numerator, x.denominator) for j, x in enumerate(row) if x}

        want = [[-cells[j][i] for j in range(size)] for i in range(size)]
        assert spaces._dual(fresh_rows(), size).cells == Matrix(want).cells

        class Streamed:  # a structure matrix whose rows are made as they are read
            cols = size
            nonzeros = property(lambda self: fresh_rows())

        class StreamedSpace:
            dim = 4

            def structure_items(self):
                return [(2, Streamed())]

        write_space(tmp_path / "v.json", StreamedSpace())
        V = EquippedSpace(4, {2: Matrix(cells)})
        assert (tmp_path / "v.json").read_text() == dumps_reference(space_to_dict(V))

    def test_quantum_plane_row(self, qp):
        got = dagger(qp).structure_at(2)
        assert got.cells[1] == (0, -1, 2, 0)
        assert all(got.cells[r] == (0, 0, 0, 0) for r in (0, 2, 3))

    def test_product_dual_equals_dual_product(self):
        rng = random.Random(17)
        for _ in range(5):
            V = random_equipped(rng, 2, (2,))
            W = random_equipped(rng, 2, (2, 3))
            a = dagger(boxtimes(V, W))
            b = boxtimes(dagger(V), dagger(W))
            for n in a.support:
                assert a.structure_at(n) == b.structure_at(n)


def tensor_power_matrix(m: Matrix, n: int) -> Matrix:
    out = Matrix.identity(1)
    for _ in range(n):
        out = matrix_kronecker(out, m)
    return out


def test_symmetry_via_flip_conjugation():
    rng = random.Random(23)
    V = random_equipped(rng, 2, (2,))
    W = random_equipped(rng, 3, (2,))
    vw = boxtimes(V, W)
    wv = boxtimes(W, V)
    tau = permutation_matrix(flip_table(V.dim, W.dim))
    for n in vw.support:
        tau_n = tensor_power_matrix(tau, n)
        assert wv.structure_at(n) == matrix_mul(tau_n, vw.structure_at(n), tau_n.transpose())


class TestCheckMorphism:
    def test_identity_passes(self, qp):
        assert check_morphism(Matrix.identity(2), qp, qp).passed

    def test_zero_map_passes(self, qp):
        assert check_morphism(Matrix.zero(2, 2), qp, qp).passed

    def test_diagonal_maps_rescale_the_relation_compatibly(self, qp):
        # The relation span is a single line, so any diagonal map rescales
        # it and intertwines the rank-one structure.
        assert check_morphism(Matrix([[1, 0], [0, 2]]), qp, qp).passed

    def test_unipotent_map_fails_with_witness(self, qp):
        rep = check_morphism(Matrix([[1, 1], [0, 1]]), qp, qp)
        assert not rep.passed
        assert rep.witness["degree"] == 2
        assert any(x != 0 for x in rep.witness["difference"])

    def test_shape_mismatch_raises(self, qp):
        with pytest.raises(ValueError):
            check_morphism(Matrix.identity(3), qp, qp)


class TestEvCoev:
    def test_dimension_one(self):
        assert ev_row(1) == Matrix([[1]])
        assert coev_column(1) == Matrix([[1]])
        assert ev_map(EquippedSpace(1, {})) == VerificationReport("ev-morphism", True)
        assert coev_map(EquippedSpace(1, {})) == VerificationReport("coev-morphism", True)

    def test_pairing_positions(self):
        assert ev_row(2).cells == ((1, 0, 0, 1),)
        assert coev_column(2).transpose().cells == ((1, 0, 0, 1),)

    def test_quantum_plane_evaluation_identity(self, qp):
        hom = boxtimes(dagger(qp), qp)
        ev2 = tensor_power_matrix(ev_row(2), 2)
        assert matrix_mul(ev2, hom.structure_at(2)).is_zero()

    def test_random_structures_pass(self):
        rng = random.Random(31)
        for _ in range(8):
            d = rng.randint(1, 3)
            degrees = rng.choice([(2,), (3,), (2, 3)])
            V = random_equipped(rng, d, degrees)
            assert ev_map(V).passed
            assert coev_map(V).passed

    def test_reports_equal_the_materialized_path(self):
        rng = random.Random(37)
        for d in (1, 2, 3):
            for degrees in [(2,), (3,), (2, 3)]:
                V = random_equipped(rng, d, degrees)
                assert ev_map(V) == ev_reference(V)
                assert coev_map(V) == coev_reference(V)

    def test_failing_witness_equals_the_materialized_path(self, monkeypatch):
        # A dual without the sign, (V*, Rᵀ), breaks both pairings; the
        # one-vector checks must report the materialized path's witness.
        # dagger looks the dual's structure up in spaces, the checks in suites.
        for module in (spaces, suites):
            monkeypatch.setattr(module, "_dual", _unsigned_dual)
        rng = random.Random(41)
        failures = 0
        for d in (1, 2, 3):
            for degrees in [(2,), (3,), (2, 3)]:
                V = random_equipped(rng, d, degrees)
                for got, want in ((ev_map(V), ev_reference(V)), (coev_map(V), coev_reference(V))):
                    assert got == want
                    failures += not got.passed
        assert failures >= 8

    def test_snake_identities(self):
        # The contraction against the Kronecker products of the pairing.
        for d in range(1, 7):
            V = EquippedSpace(d, {})
            assert snake_identity(V) == snake_reference(V) == VerificationReport(
                "snake-identity", True
            )

    def test_contraction_equals_the_kronecker_products_of_any_pairing(self):
        # δ is symmetric, so only pairings that are not can tell the two
        # contracted indices apart.
        rng = random.Random(47)
        for d in range(1, 5):
            for _ in range(5):
                ev = [rng.randint(-3, 3) for _ in range(d * d)]
                coev = [rng.randint(-3, 3) for _ in range(d * d)]
                want = snake_composites(Matrix([ev]), Matrix([[x] for x in coev]), d)
                assert _zigzags(ev, coev, d) == want

    def test_snake_failure_witness(self, monkeypatch):
        # A pairing doubled on one side: both composites are twice the identity.
        monkeypatch.setattr(
            suites, "_zigzags", lambda ev, coev, d: _zigzags([2 * x for x in ev], coev, d)
        )
        rep = snake_identity(EquippedSpace(2, {}))
        assert not rep.passed
        assert rep.witness == {"on_dual": [[2, 0], [0, 2]], "on_primal": [[2, 0], [0, 2]]}

    def test_coev_kron_identity_failure_witness(self, monkeypatch):
        # With a negation that keeps the sign, the image is the sum of the
        # pairing rows of R_nᵀ⊠R_n; ev and coev take -Rᵀ from _dual and pass.
        monkeypatch.setattr(Matrix, "__neg__", lambda self: self)
        V = read_space(INPUTS / "a.json")
        assert ev_map(V).passed and coev_map(V).passed
        image = [0, 0, 0, 0, 0, 1, -2, 0, 0, Fraction(-3, 2), 3, 0, 0, 0, 0, 0]
        assert coev_kron_identity(V) == VerificationReport(
            "coev-kron-identity", False, witness={"degree": 2, "image": image}
        )


class TestHomSpace:
    def test_hom_from_unit_is_the_space(self, qp):
        got = hom_space(EquippedSpace(1, {}), qp)
        assert got.dim == 2
        assert got.structure_at(2) == qp.structure_at(2)

    def test_zero_structure_hom(self):
        V = EquippedSpace(2, {2: Matrix.zero(4, 4)})
        assert hom_space(V, V).structure_at(2).is_zero()

    def test_quantum_plane_hom_rank(self, qp):
        # Frozen from the independent rank oracle (negate-transpose on the
        # left factor drops the rank from 7 to 6).
        got = hom_space(qp, qp).structure_at(2)
        assert column_space(got).dim == 6
        assert oracle_rank([list(r) for r in got.cells]) == 6
