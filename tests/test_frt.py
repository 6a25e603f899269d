import random
from fractions import Fraction
from itertools import product

import pytest

from eqspace import (
    EquippedSpace,
    Matrix,
    PresentedAlgebra,
    Subspace,
    apply_U,
    check_comult_well_defined,
    check_manin_epi,
    coassociativity_check,
    column_space,
    corep_delta_check,
    counit_check,
    counit_law_check,
    frt_relations,
    frt_relations_conic,
    hom_space,
    manin_hom_relations,
    verify_hom_equals_frt,
)
from eqspace import frt
from eqspace.frt import (
    Comultiplication,
    counit_on_word,
    frt_relation_generators,
    gen_flat,
    gen_split,
)
from eqspace.linalg import kronecker
from eqspace.suites import suite_checks
from conftest import cubic_matrix, random_quadratic
from oracles import (
    dense_coassociativity,
    dense_counit_law,
    dense_on_vector,
    dense_on_word,
    oracle_rank,
    phi_iso,
)


def zero_space(d):
    return EquippedSpace(d, {2: Matrix.zero(d * d, d * d)})


class TestFrtRelations:
    def test_zero_structures_give_free_algebra(self):
        assert frt_relations(zero_space(2), zero_space(2)).dim == 0

    def test_quantum_plane_span_dimension(self, qp):
        # Frozen from the independent rank oracle.
        rel = frt_relations(qp, qp)
        assert rel.dim == 6
        raw = [vec for _, vec in frt_relation_generators(qp, qp)]
        assert oracle_rank(raw) == 6

    def test_braided_span_dimension_and_quotient(self, dj):
        rel = frt_relations(dj, dj)
        assert rel.dim == 6
        A = apply_U(hom_space(dj, dj))
        assert A.hilbert(3) == [1, 4, 10, 20]

    def test_quantum_plane_quotient_series(self, qp):
        # Same series as the braided case through degree 3: both relation
        # spans have dimension 6 (value frozen from the embedding oracle).
        A = apply_U(hom_space(qp, qp))
        assert A.hilbert(3) == [1, 4, 10, 20]

    def test_rejects_nonquadratic(self, cubic):
        with pytest.raises(ValueError):
            frt_relations(cubic, cubic)

    def test_generator_labels_are_lexicographic(self, qp):
        labels = [label for label, _ in frt_relation_generators(qp, qp)]
        assert labels == sorted(labels)
        assert len(labels) == 16

    def test_one_suite_call_builds_each_pair_once(self, monkeypatch):
        # The "all" suite asks for the span of (V, W) four times and for
        # (V, U) and (U, W) once each; counit_check builds the raw
        # generators of (V, V) and (W, W) without eliminating them.
        rng = random.Random(2024)
        V, W, U = (random_quadratic(rng, 2) for _ in range(3))
        built = []

        def counting(X, Y):
            built.append((X.structure_at(2), Y.structure_at(2)))
            return frt_relation_generators(X, Y)

        frt._frt_span.cache_clear()
        monkeypatch.setattr(frt, "frt_relation_generators", counting)
        suite_checks("all", V, W, U)
        R, S, T = (X.structure_at(2) for X in (V, W, U))
        assert sorted(map(built.count, built)) == [1] * 5
        assert set(built) == {(R, S), (R, T), (T, S), (R, R), (S, S)}


class TestHomEqualsFrt:
    def test_zero_structures(self):
        rep = verify_hom_equals_frt(zero_space(2), zero_space(3))
        assert rep.passed
        assert rep.dimensions == {"pipeline": 0, "explicit": 0}

    def test_quantum_plane(self, qp):
        rep = verify_hom_equals_frt(qp, qp)
        assert rep.passed
        assert rep.dimensions == {"pipeline": 6, "explicit": 6}

    def test_random_pairs(self):
        rng = random.Random(101)
        for _ in range(20):
            V = random_quadratic(rng, rng.choice((2, 3)))
            W = random_quadratic(rng, rng.choice((2, 3)))
            assert verify_hom_equals_frt(V, W).passed


class TestComultiplication:
    def test_single_middle_index(self):
        delta = Comultiplication(2, 2, 1)
        image = delta.on_word([gen_flat(1, 0, 2)])
        # t_1^0 -> t'_1^0 (x) t''_0^0: left letter 0*2+1, right letter 0*1+0.
        expected = [0] * (2 * 2)
        expected[1 * 2 + 0] = 1
        assert list(image) == expected

    def test_word_image_is_multiplicative(self):
        delta = Comultiplication(2, 2, 2)
        image = delta.on_word([0, 3])
        assert sum(image) == 4  # one term per middle-index pair
        assert all(c in (0, 1) for c in image)

    def test_counit_on_words(self):
        assert counit_on_word([gen_flat(1, 1, 2)], 2) == 1
        assert counit_on_word([gen_flat(1, 0, 2)], 2) == 0
        assert counit_on_word([gen_flat(0, 0, 2), gen_flat(1, 0, 2)], 2) == 0

    def test_gen_flat_split_roundtrip(self):
        for dv in (1, 2, 3):
            for g in range(dv * 3):
                i, j = gen_split(g, dv)
                assert gen_flat(i, j, dv) == g

    def test_coassociativity_various_dims(self):
        for dims in [(2, 2, 2, 2), (2, 3, 2, 3), (1, 2, 3, 1), (3, 2, 1, 2)]:
            assert coassociativity_check(*dims).passed

    def test_counit_law_various_dims(self):
        for dv, dw in [(1, 1), (2, 2), (2, 3), (3, 2)]:
            assert counit_law_check(dv, dw).passed



class TestSparseImagesAgainstDenseLoops:
    """The sparse word images give the dense loops' values, entry by entry."""

    @pytest.mark.parametrize("dims", list(product((1, 2, 3), repeat=3)))
    def test_on_word_and_on_vector(self, dims):
        dV, dW, dU = dims
        delta = Comultiplication(dV, dW, dU)
        rng = random.Random(dV * 100 + dW * 10 + dU)
        g_count = dV * dW
        for degree in (1, 2, 3):
            size = g_count**degree
            codes = rng.sample(range(size), min(size, 3))
            for code in codes:
                word = [code // g_count**e % g_count for e in reversed(range(degree))]
                assert delta.on_word(word) == dense_on_word(dV, dW, dU, word)
            coords = [0] * size
            for code in codes:
                coords[code] = rng.choice((Fraction(0), 2, -1, Fraction(-5, 3)))
            got = delta.on_vector(coords, degree)
            assert got == dense_on_vector(dV, dW, dU, coords, degree)

    def test_coassociativity(self):
        for dims in product((1, 2, 3), repeat=4):
            assert coassociativity_check(*dims) == dense_coassociativity(*dims)

    def test_counit_law(self):
        for dV, dW in product((1, 2, 3), repeat=2):
            assert counit_law_check(dV, dW) == dense_counit_law(dV, dW)


class TestComultWellDefined:
    def test_zero_structures(self):
        rep = check_comult_well_defined(zero_space(2), zero_space(2), zero_space(2))
        assert rep.passed

    def test_quantum_plane(self, qp):
        assert check_comult_well_defined(qp, qp, qp).passed

    def test_braided_structure(self, dj):
        assert check_comult_well_defined(dj, dj, dj).passed

    def test_random_triples(self):
        rng = random.Random(103)
        for _ in range(10):
            V, W, U = (random_quadratic(rng, 2) for _ in range(3))
            assert check_comult_well_defined(V, W, U).passed


class TestCounitCheck:
    def test_zero_structure(self):
        assert counit_check(zero_space(2)).passed

    def test_arbitrary_structures(self):
        rng = random.Random(107)
        for d in (1, 2, 3):
            assert counit_check(random_quadratic(rng, d)).passed

    def test_braided_structure(self, dj):
        assert counit_check(dj).passed


class TestCorepDelta:
    def test_zero_image_is_vacuous(self, qp):
        assert corep_delta_check(zero_space(2), qp).passed

    def test_quantum_plane(self, qp):
        assert corep_delta_check(qp, qp).passed

    def test_random_pairs(self):
        rng = random.Random(109)
        for _ in range(20):
            V, W = random_quadratic(rng, 2), random_quadratic(rng, 2)
            assert corep_delta_check(V, W).passed


class TestManin:
    def test_full_source_relations_annihilate(self, qp):
        # Full relation space has zero annihilator: the hom algebra is free.
        A = apply_U(qp)
        full = PresentedAlgebra(2, {2: Subspace.full(4)})
        assert manin_hom_relations(A, full).dim == 0

    def test_zero_target_relations(self, qp):
        A = apply_U(zero_space(2))
        B = apply_U(qp)
        assert manin_hom_relations(A, B).dim == 0

    def test_quantum_plane_dimension(self, qp):
        A = apply_U(qp)
        rel = manin_hom_relations(A, A)
        assert rel.dim == 3

    def test_containment_in_frt(self, qp):
        rep = check_manin_epi(qp, qp)
        assert rep.passed
        assert rep.dimensions == {"manin": 3, "frt": 6}

    def test_braided_instance(self, dj):
        rep = check_manin_epi(dj, dj)
        assert rep.passed
        # Invertible structure: the quotient relations fill the square,
        # the annihilator vanishes, and the hom relations are trivial.
        assert rep.dimensions == {"manin": 0, "frt": 6}

    def test_random_pairs(self):
        rng = random.Random(113)
        for _ in range(20):
            V = random_quadratic(rng, rng.choice((2, 3)))
            W = random_quadratic(rng, rng.choice((2, 3)))
            rep = check_manin_epi(V, W)
            assert rep.passed
            assert rep.dimensions["manin"] <= rep.dimensions["frt"]


class TestConic:
    def test_degree_two_matches_quadratic_case(self, qp):
        conic = frt_relations_conic(qp, qp, 2)
        assert conic == frt_relations(qp, qp)

    def test_cubic_span_dimension(self, cubic):
        # Frozen from the independent rank oracle; every rank-one cubic
        # structure with this image gives the same count.
        rel = frt_relations_conic(cubic, cubic, 3)
        assert rel.dim == 14

    def test_cubic_matches_pipeline_conjugation(self, cubic):
        phi = phi_iso(2, 2, 3)
        R3 = cubic_matrix()
        direct = phi.transpose() * (
            kronecker(-R3.transpose(), Matrix.identity(8))
            + kronecker(Matrix.identity(8), R3)
        ) * phi
        assert frt_relations_conic(cubic, cubic, 3) == column_space(direct)
        raw = [list(r) for r in direct.transpose().cells]
        assert oracle_rank(raw) == 14

    def test_zero_structure(self):
        V = EquippedSpace(2, {3: Matrix.zero(8, 8)})
        assert frt_relations_conic(V, V, 3).dim == 0

    def test_mixed_support_rejected(self, qp, cubic):
        with pytest.raises(ValueError):
            frt_relations_conic(qp, cubic, 3)


class TestEpiDirectionOnQuotients:
    def test_hom_quotient_dominates_manin_quotient(self, qp):
        # The hom algebra of the quotients has fewer relations, so its
        # graded dimensions dominate those of the quantum matrix algebra.
        A = apply_U(qp)
        manin_alg = PresentedAlgebra(4, {2: manin_hom_relations(A, A)})
        frt_alg = apply_U(hom_space(qp, qp))
        for n in range(4):
            assert manin_alg.graded_dim(n) >= frt_alg.graded_dim(n)

    def test_dimension_domination_on_random_pairs(self):
        rng = random.Random(127)
        for _ in range(5):
            V, W = random_quadratic(rng, 2), random_quadratic(rng, 2)
            manin_alg = PresentedAlgebra(
                4, {2: manin_hom_relations(apply_U(V), apply_U(W))}
            )
            frt_alg = apply_U(hom_space(W, V))
            for n in range(4):
                assert manin_alg.graded_dim(n) >= frt_alg.graded_dim(n)


class TestSuitesAtDimensionThree:
    def test_bialgebra_and_epi_suites_pass(self):
        # The comultiplication target is a span in k^6561; as dense
        # Kronecker rows it took minutes to eliminate.
        rng = random.Random(131)
        V, W, U = (random_quadratic(rng, 3) for _ in range(3))
        reports = suite_checks("bialgebra", V, W, U) + suite_checks("epi", V, W)
        assert len(reports) == 9
        assert [rep.name for rep in reports if not rep.passed] == []
