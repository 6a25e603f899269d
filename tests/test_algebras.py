import random
from fractions import Fraction

import pytest

from eqspace import (
    DegreeCapExceeded,
    EquippedSpace,
    FreeElement,
    Matrix,
    PresentedAlgebra,
    Subspace,
    apply_U,
    boxtimes,
    check_U_epi,
    check_algebra_morphism,
    column_space,
    structure_projector,
    unit_K,
)
from eqspace.sampling import random_equipped
from conftest import QP_MATRIX, random_quadratic
from oracles import (
    circle_ideal_component,
    embed_and_sum_component,
    oracle_graded_dims,
    oracle_normal_forms,
)

QP_REL = Subspace.from_rows(4, [[0, 1, -2, 0]])


def qp_algebra():
    return apply_U(EquippedSpace(2, {2: QP_MATRIX}))


class TestApplyU:
    def test_zero_structure_is_free(self):
        A = apply_U(EquippedSpace(2, {2: Matrix.zero(4, 4)}))
        assert A.hilbert(3) == [1, 2, 4, 8]

    def test_quantum_plane_relations(self):
        A = qp_algebra()
        assert A.relations[2] == QP_REL

    def test_unit_space_gives_scalar_tower(self):
        A = apply_U(unit_K())
        assert A.hilbert(4) == [1, 1, 1, 1, 1]


class TestIdealComponent:
    def test_free_algebra_zero(self):
        A = PresentedAlgebra(2)
        assert all(A.ideal_component(n).dim == 0 for n in range(4))

    def test_quantum_plane_degree_two(self):
        A = qp_algebra()
        assert A.ideal_component(2) == QP_REL

    def test_quantum_plane_degree_three(self):
        # Frozen from the brute-force embedding oracle.
        A = qp_algebra()
        assert A.ideal_component(3).dim == 4
        assert A.graded_dim(3) == 4

    def test_low_degrees_are_zero(self):
        A = qp_algebra()
        assert A.ideal_component(0).dim == 0
        assert A.ideal_component(1).dim == 0

    def test_degree_cap(self):
        A = PresentedAlgebra(2, degree_cap=3)
        with pytest.raises(DegreeCapExceeded):
            A.ideal_component(4)


class TestHilbert:
    def test_free_series(self):
        assert PresentedAlgebra(2).hilbert(3) == [1, 2, 4, 8]

    def test_quantum_plane_series(self):
        assert qp_algebra().hilbert(4) == [1, 2, 3, 4, 5]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(19)
        for _ in range(5):
            rel_rows = [
                [Fraction(rng.randint(-2, 2)) for _ in range(4)]
                for _ in range(rng.randint(0, 3))
            ]
            A = PresentedAlgebra(2, {2: Subspace.from_rows(4, rel_rows)})
            assert A.hilbert(3) == oracle_graded_dims(2, {2: rel_rows}, 3)

    def test_first_call_at_high_degree(self):
        # The lower degrees and the normal forms of prefixes are built in
        # loops, so a first call far above the cached degrees stays shallow.
        free = PresentedAlgebra(1, degree_cap=2000)
        assert free.graded_dim(1500) == 1
        assert PresentedAlgebra(1, degree_cap=2000).normal_form(FreeElement(1500, (1,))) == (1,)
        killed = PresentedAlgebra(1, {2: Subspace.from_rows(1, [[1]])}, degree_cap=2000)
        assert killed.ideal_component(1500).dim == 1
        assert killed.graded_dim(1500) == 0
        assert killed.normal_form(FreeElement(1500, (1,))) == ()


class TestNormalForm:
    def test_ideal_elements_vanish(self):
        A = qp_algebra()
        assert A.normal_form(FreeElement(2, (0, 1, -2, 0))) == (0, 0, 0)

    def test_free_algebra_is_identity(self):
        A = PresentedAlgebra(2)
        x = FreeElement(2, (1, 2, 3, 4))
        assert A.normal_form(x) == (1, 2, 3, 4)

    def test_quantum_plane_reduction(self):
        # Complement words are (v0v0, v1v0, v1v1); the pivot word v0v1
        # rewrites to twice v1v0.
        A = qp_algebra()
        assert A.complement_words(2) == [0, 2, 3]
        assert A.normal_form(FreeElement(2, (0, 0, 1, 0))) == (0, 1, 0)
        assert A.normal_form(FreeElement(2, (0, 1, 0, 0))) == (0, 2, 0)

    def test_kernel_dimension_matches_ideal(self):
        rng = random.Random(29)
        A = apply_U(random_quadratic(rng, 2))
        n = 3
        kernel_count = 0
        for w in range(2**n):
            coords = tuple(int(i == w) for i in range(2**n))
            nf = A.normal_form(FreeElement(n, coords))
            if all(x == 0 for x in nf):
                kernel_count += 1
        # Linearity: basis words mapping to zero span exactly the pivots.
        assert kernel_count == A.ideal_component(n).dim

    def test_ideal_combinations_die(self):
        rng = random.Random(31)
        A = apply_U(random_quadratic(rng, 2))
        comp = A.ideal_component(3)
        for _ in range(10):
            vec = [0] * comp.ambient_dim
            for row in comp.basis.cells:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                vec = [x + c * y for x, y in zip(vec, row)]
            nf = A.normal_form(FreeElement(3, tuple(vec)))
            assert all(x == 0 for x in nf)


def random_rows(rng, width, count):
    return [
        [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(width)]
        for _ in range(count)
    ]


def assert_matches_oracles(rng, gen_dim, rows_by_degree, max_degree):
    """Hilbert series, ideal components, complement words and normal forms
    of the presentation agree with the embed-and-sum reference and the
    brute-force oracles in every degree up to max_degree."""
    relations = {
        m: Subspace.from_rows(gen_dim**m, rows) for m, rows in rows_by_degree.items()
    }
    A = PresentedAlgebra(gen_dim, relations, degree_cap=max_degree)
    assert A.hilbert(max_degree) == oracle_graded_dims(gen_dim, rows_by_degree, max_degree)
    for n in range(max_degree + 1):
        assert A.ideal_component(n) == embed_and_sum_component(gen_dim, relations, n)
        size = gen_dim**n
        vectors = [tuple(int(i == w) for i in range(size)) for w in range(size)]
        vectors += [tuple(row) for row in random_rows(rng, size, 2)]
        words, residues = oracle_normal_forms(rows_by_degree, gen_dim, n, vectors)
        assert A.complement_words(n) == words
        for vec, expected in zip(vectors, residues):
            assert A.normal_form(FreeElement(n, vec)) == expected


class TestRecursionMatchesOracles:
    def test_random_quadratic_dim_two(self):
        rng = random.Random(47)
        for _ in range(6):
            rows = random_rows(rng, 4, rng.randint(0, 4))
            assert_matches_oracles(rng, 2, {2: rows}, 5)

    def test_sampled_quadratic_spaces_dim_two(self):
        rng = random.Random(53)
        for _ in range(3):
            rel = apply_U(random_quadratic(rng, 2)).relations[2]
            assert_matches_oracles(rng, 2, {2: [list(r) for r in rel.basis.cells]}, 5)

    def test_random_quadratic_dim_three(self):
        rng = random.Random(59)
        for _ in range(3):
            rows = random_rows(rng, 9, rng.randint(1, 3))
            assert_matches_oracles(rng, 3, {2: rows}, 4)

    def test_cubic_fixture(self, cubic):
        rel = apply_U(cubic).relations[3]
        assert_matches_oracles(random.Random(61), 2, {3: [list(r) for r in rel.basis.cells]}, 6)

    def test_mixed_degrees_two_and_three(self):
        rng = random.Random(67)
        for _ in range(3):
            rows = {2: random_rows(rng, 4, 1), 3: random_rows(rng, 8, rng.randint(1, 3))}
            assert_matches_oracles(rng, 2, rows, 5)

    def test_zero_and_full_spans(self):
        rng = random.Random(71)
        identity = lambda size: [[int(i == j) for j in range(size)] for i in range(size)]
        assert_matches_oracles(rng, 2, {2: []}, 5)
        assert_matches_oracles(rng, 2, {2: identity(4)}, 5)
        assert_matches_oracles(rng, 3, {2: identity(9)}, 4)
        assert_matches_oracles(rng, 2, {2: [], 3: identity(8)}, 5)


def circle_hilbert(A, B, max_degree):
    """Graded dimensions of A∘B read off the dense oracle ideal."""
    size = A.gen_dim * B.gen_dim
    return [size**n - circle_ideal_component(A, B, n).dim for n in range(max_degree + 1)]


def hilbert_product(A, B, max_degree):
    return [a * b for a, b in zip(A.hilbert(max_degree), B.hilbert(max_degree))]


class TestCircProduct:
    """The circle product A∘B has graded dimensions h_A(n)·h_B(n), the
    formula check_U_epi reports; the dense oracle ideal agrees."""

    def test_free_times_free_is_free(self):
        A, B = PresentedAlgebra(2), PresentedAlgebra(3)
        assert circle_hilbert(A, B, 3) == [1, 6, 36, 216]
        assert hilbert_product(A, B, 3) == [1, 6, 36, 216]

    def test_unit_algebra_is_neutral(self):
        A = qp_algebra()
        unit_alg = PresentedAlgebra(1)
        assert circle_hilbert(A, unit_alg, 4) == A.hilbert(4)
        assert hilbert_product(A, unit_alg, 4) == A.hilbert(4)

    def test_quantum_plane_square_degree_two(self):
        # 16 - (4 + 4 - 1) = 9, frozen from the rank oracle.
        A = qp_algebra()
        assert circle_hilbert(A, A, 2)[2] == 9
        assert hilbert_product(A, A, 2)[2] == 9


class TestCheckUEpi:
    def test_zero_structures_pass(self):
        V = EquippedSpace(2, {2: Matrix.zero(4, 4)})
        assert check_U_epi(V, V, 3).passed

    def test_quantum_plane_passes(self, qp):
        rep = check_U_epi(qp, qp, 4)
        assert rep.passed
        assert rep.dimensions["product_ideal_2"] == 7
        assert rep.dimensions["circle_ideal_2"] == 7

    def test_random_pairs(self):
        rng = random.Random(37)
        for _ in range(20):
            V, W = random_quadratic(rng, 2), random_quadratic(rng, 2)
            rep = check_U_epi(V, W, 3)
            assert rep.passed
            # Ideal containment means the circle algebra is the quotient,
            # so its graded dimensions cannot exceed the product side's.
            for n in (2, 3):
                assert rep.dimensions[f"product_ideal_{n}"] <= rep.dimensions[
                    f"circle_ideal_{n}"
                ]

    @pytest.mark.parametrize(
        "supports",
        [((2,), (2,)), ((3,), (3,)), ((2, 3), (2, 3)), ((2,), (3,))],
        ids=["2-2", "3-3", "23-23", "2-3"],
    )
    def test_matches_dense_oracle(self, supports):
        # The check tests generators against the tensor sum and reads the
        # ideal dimensions off Hilbert series; the oracle builds both
        # ideals in the ambient space and tests the whole product ideal.
        rng = random.Random(41 + sum(map(sum, supports)))
        for _ in range(4):
            V = random_equipped(rng, 2, supports[0])
            W = random_equipped(rng, 2, supports[1])
            rep = check_U_epi(V, W, 3)
            assert rep.passed
            A, B = apply_U(V, degree_cap=3), apply_U(W, degree_cap=3)
            product_relations = apply_U(boxtimes(V, W)).relations
            for n in (2, 3):
                product = embed_and_sum_component(4, product_relations, n)
                circle = circle_ideal_component(A, B, n)
                assert circle.first_outside(product.basis.cells) is None
                assert rep.dimensions[f"product_ideal_{n}"] == product.dim
                assert rep.dimensions[f"circle_ideal_{n}"] == circle.dim


class TestStructureProjector:
    def test_full_space(self):
        assert structure_projector(Subspace.full(3)) == Matrix.identity(3)

    def test_zero_space(self):
        assert structure_projector(Subspace.zero(3)) == Matrix.zero(3, 3)

    def test_quantum_plane_projector(self, qp):
        P = structure_projector(QP_REL)
        assert P * P == P
        assert column_space(P) == QP_REL
        rebuilt = apply_U(EquippedSpace(2, {2: P}))
        assert rebuilt.hilbert(4) == [1, 2, 3, 4, 5]
        assert rebuilt.relations[2] == QP_REL

    def test_random_idempotents(self):
        rng = random.Random(41)
        for _ in range(20):
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)]
                for _ in range(rng.randint(0, 4))
            ]
            rel = Subspace.from_rows(5, rows)
            P = structure_projector(rel)
            assert P * P == P
            assert column_space(P) == rel


class TestCheckAlgebraMorphism:
    def test_identity_on_same_presentation(self):
        A = qp_algebra()
        assert check_algebra_morphism(Matrix.identity(2), A, qp_algebra()).passed

    def test_everything_maps_into_full_relations(self):
        rng = random.Random(43)
        A = apply_U(random_quadratic(rng, 2))
        B = PresentedAlgebra(2, {2: Subspace.full(4)})
        l = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        assert check_algebra_morphism(l, A, B).passed

    def test_scaling_preserves_quantum_plane(self):
        A = qp_algebra()
        assert check_algebra_morphism(Matrix([[2, 0], [0, 2]]), A, qp_algebra()).passed

    def test_failure_carries_witness(self):
        A = qp_algebra()
        B = PresentedAlgebra(2)
        rep = check_algebra_morphism(Matrix.identity(2), A, B)
        assert not rep.passed
        assert rep.witness["degree"] == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_algebra_morphism(Matrix.identity(3), qp_algebra(), qp_algebra())
