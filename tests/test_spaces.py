import random
from fractions import Fraction

import pytest

from eqspace import (
    EquippedSpace,
    Matrix,
    VerificationReport,
    boxtimes,
    check_morphism,
    coev_map,
    column_space,
    dagger,
    ev_map,
    hom_space,
    unit_K,
)
from eqspace import spaces
from eqspace.linalg import kronecker
from eqspace.sampling import random_equipped, random_matrix
from eqspace.spaces import _boxtimes_apply, boxtimes_degree, coev_column, ev_row
from oracles import (
    boxtimes_conjugation,
    coev_reference,
    ev_reference,
    flip_table,
    oracle_rank,
    permutation_matrix,
)


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
        assert unit_K().dim == 1

    def test_dagger_of_unit(self):
        assert dagger(unit_K()) == unit_K()

    def test_left_and_right_unit_laws(self, qp):
        left = boxtimes(unit_K(), qp)
        right = boxtimes(qp, unit_K())
        assert left.structure_at(2) == qp.structure_at(2)
        assert right.structure_at(2) == qp.structure_at(2)


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

    def test_apply_equals_columns_of_the_built_product(self):
        rng = random.Random(29)
        for dv, dw in [(1, 2), (2, 3), (3, 2)]:
            for n in (1, 2, 3):
                R = random_matrix(rng, dv**n, dv**n)
                S = random_matrix(rng, dw**n, dw**n)
                built = boxtimes_degree(R, S, dv, dw, n)
                size = (dv * dw) ** n
                for j in rng.sample(range(size), min(size, 6)):
                    e_j = [int(k == j) for k in range(size)]
                    column = tuple(built[r, j] for r in range(size))
                    assert _boxtimes_apply(R, S, dv, dw, n, e_j) == column


class TestDagger:
    def test_involution_on_the_nose(self):
        rng = random.Random(3)
        V = random_equipped(rng, 2, (2, 3))
        again = dagger(dagger(V))
        for n in V.support:
            assert again.structure_at(n) == V.structure_at(n)

    def test_zero_structure(self):
        V = EquippedSpace(2, {2: Matrix.zero(4, 4)})
        assert dagger(V).structure_at(2).is_zero()

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
        out = kronecker(out, m)
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
        assert wv.structure_at(n) == tau_n * vw.structure_at(n) * tau_n.transpose()


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
        assert ev_map(unit_K()) == VerificationReport("ev-morphism", True)
        assert coev_map(unit_K()) == VerificationReport("coev-morphism", True)

    def test_pairing_positions(self):
        assert ev_row(2).cells == ((1, 0, 0, 1),)
        assert coev_column(2).transpose().cells == ((1, 0, 0, 1),)

    def test_quantum_plane_evaluation_identity(self, qp):
        hom = boxtimes(dagger(qp), qp)
        ev2 = tensor_power_matrix(ev_row(2), 2)
        assert (ev2 * hom.structure_at(2)).is_zero()

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
        def unsigned_dual(V):
            return EquippedSpace(V.dim, {n: m.transpose() for n, m in V.structure_items()})

        monkeypatch.setattr(spaces, "dagger", unsigned_dual)
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
        for d in range(1, 5):
            ident = Matrix.identity(d)
            ev = ev_row(d)
            coev = coev_column(d)
            assert kronecker(ev, ident) * kronecker(ident, coev) == ident
            assert kronecker(ident, ev) * kronecker(coev, ident) == ident


class TestHomSpace:
    def test_hom_from_unit_is_the_space(self, qp):
        got = hom_space(unit_K(), qp)
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
