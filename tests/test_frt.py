import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from eqspace import (
    EquippedSpace,
    Matrix,
    PresentedAlgebra,
    Subspace,
    apply_U,
    check_U_epi,
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
from eqspace import coalgebra, epi, frt, spaces
from eqspace.coalgebra import Comultiplication, counit_on_word
from eqspace.frt import frt_relation_generators, gen_flat, gen_split
from eqspace.linalg import kernel
from eqspace.suites import suite_checks
from conftest import (
    PRIMES,
    bilinear_form_draws,
    cubic_matrix,
    qcomm_space,
    random_quadratic,
    shifted_jimbo_space,
)
from oracles import (
    _containment_report,
    bilinear_form_frt_span,
    boxtimes_conjugation,
    dense_coassociativity,
    dense_counit_law,
    dense_frt_relation_generators,
    dense_on_vector,
    dense_on_word,
    full_space,
    oracle_contains,
    oracle_rank,
    tensor_sum_U_epi,
    tensor_sum_comult_check,
    tensor_sum_corep_check,
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
        raw = [vec for _, vec in dense_frt_relation_generators(qp, qp)]
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
        # The "all" suite asks for the span of (V, W) five times and for
        # (V, U), (U, W), (V, 1) and (W, 1) once each, 1 the unit with its
        # 1×1 zero structure; counit_check builds the raw generators of
        # (V, V) and (W, W) without eliminating them.
        rng = random.Random(2024)
        V, W, U = (random_quadratic(rng, 2) for _ in range(3))
        built = []
        real = frt._generator_rows

        def counting(dX, R, dY, S):
            built.append((R, S))
            return real(dX, R, dY, S)

        frt._frt_span.cache_clear()
        monkeypatch.setattr(frt, "_generator_rows", counting)
        suite_checks("all", V, W, U)
        R, S, T = (X.structure_at(2) for X in (V, W, U))
        zero = Matrix.zero(1, 1)
        assert sorted(map(built.count, built)) == [1] * 7
        assert set(built) == {(R, S), (R, T), (T, S), (R, R), (S, S), (R, zero), (S, zero)}


def shifted_jimbo_pairs():
    """(kⁿ, Ř_2 + ½·I) and (kⁿ, Ř_2 − 2·I) at n = 2..4, each paired with itself."""
    for n in (2, 3, 4):
        for V in (shifted_jimbo_space(n, 2, Fraction(1, 2)), shifted_jimbo_space(n, 2, -2)):
            yield V, V


class TestGeneratorsAgainstDenseReference:
    """frt_relation_generators gives the labels of the dense enumeration, in
    its order, and each row holds exactly that vector's nonzeros."""

    @staticmethod
    def assert_matches(V, W):
        got = frt_relation_generators(V, W)
        want = dense_frt_relation_generators(V, W)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, row), (_, vec) in zip(got, want):
            assert row == {code: c for code, c in enumerate(vec) if c != 0}

    @pytest.mark.parametrize("dims", list(product((1, 2, 3), repeat=2)))
    def test_random_pairs(self, dims):
        rng = random.Random(dims[0] * 10 + dims[1])
        for _ in range(3):
            self.assert_matches(*(random_quadratic(rng, d) for d in dims))

    def test_q_commuting_pairs(self):
        rng = random.Random(157)
        for dV, dW in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]:
            V = qcomm_space(rng.sample(PRIMES, comb(dV, 2)), dV)
            W = qcomm_space([-q for q in rng.sample(PRIMES, comb(dW, 2))], dW)
            self.assert_matches(V, W)
            self.assert_matches(V, V)

    def test_shifted_jimbo_spaces(self):
        for V, W in shifted_jimbo_pairs():
            self.assert_matches(V, W)

    def test_zero_structures(self):
        self.assert_matches(zero_space(2), zero_space(3))


class TestShiftedJimboClosedForms:
    """The shifted Hecke operators of Jimbo's Ř_q at q = 2: Ř_q + q⁻¹·I has
    the q-symmetric image, so U is the quantum exterior algebra, and
    Ř_q − q·I the q-antisymmetric one, so U is quantum affine space."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_forms(self, n):
        exterior = shifted_jimbo_space(n, 2, Fraction(1, 2))
        affine = shifted_jimbo_space(n, 2, -2)
        assert apply_U(exterior).hilbert(5) == [comb(n, k) for k in range(6)]
        assert apply_U(affine).hilbert(5) == [comb(n + k - 1, k) for k in range(6)]
        for V in (exterior, affine):
            assert frt_relations(V, V).dim == n * n * (n * n - 1) // 2
            A = apply_U(V)
            assert manin_hom_relations(A, A).dim == comb(n + 1, 2) * comb(n, 2)

    @pytest.mark.parametrize("n, top", [(2, 6), (3, 5), (4, 4)])
    @pytest.mark.parametrize("shift", [Fraction(1, 2), -2], ids=["exterior", "affine"])
    def test_frt_series_is_polynomial(self, n, top, shift):
        # The FRT algebra of a Hecke-type Ř_q has the series of a polynomial
        # algebra in the n² generators t_i^j.
        V = shifted_jimbo_space(n, 2, shift)
        A = PresentedAlgebra(n * n, {2: frt_relations(V, V)})
        assert A.hilbert(top) == [comb(k + n * n - 1, k) for k in range(top + 1)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shift", [Fraction(1, 2), -2], ids=["exterior", "affine"])
    def test_U_epi_dimensions(self, n, shift):
        # U(V⊠V) and U(V)∘U(V) both have series h(k)², h(k) the series of
        # U(V): C(n, k) for the exterior algebra, C(n+k−1, k) for affine space.
        def h(k):
            return comb(n, k) if shift == Fraction(1, 2) else comb(n + k - 1, k)

        V = shifted_jimbo_space(n, 2, shift)
        rep = check_U_epi(V, V, 3)
        assert rep.passed
        assert rep.dimensions == {
            f"{kind}_ideal_{k}": n ** (2 * k) - h(k) ** 2
            for k in (2, 3)
            for kind in ("product", "circle")
        }


class TestBilinearFormSpaces:
    """V_E = (kⁿ, e·uᵀ) for a nondegenerate integer form E and a nonzero
    integer u: R is not symmetric, so the FRT rows must put R and S the
    right way round to equal the span built from E and u alone."""

    DRAWS = [(2, 211), (3, 223), (4, 227)]

    @pytest.mark.parametrize("n, seed", DRAWS)
    def test_span_equals_the_form_oracle(self, n, seed):
        # U(V_E) has series 1/(1 − n·t + t²): h_k = n·h_{k−1} − h_{k−2}.
        series = [1, n]
        while len(series) < 5:
            series.append(n * series[-1] - series[-2])
        for V, E, u in bilinear_form_draws(n, seed):
            assert apply_U(V).hilbert(4) == series
            span = frt_relations(V, V)
            assert span == bilinear_form_frt_span(E, u)
            assert span.dim == 2 * n * n - 2
            assert corep_delta_check(V, V).passed
            assert check_comult_well_defined(V, V, V).passed

    @pytest.mark.parametrize("n, seed", DRAWS)
    def test_quadratic_dual_inverts_the_series(self, n, seed):
        # U(V_E)^! = T(kⁿ)/(e^⊥) has series 1 + n·t + t², so with U(V_E)'s
        # 1/(1 − n·t + t²) the Koszul relation h(t)·h^!(−t) = 1 holds.
        for V, _, _ in bilinear_form_draws(n, seed):
            dual = PresentedAlgebra(n, {2: kernel(column_space(V.structure_at(2)).basis)})
            h, h_dual = apply_U(V).hilbert(5), dual.hilbert(5)
            assert h_dual == [1, n, 1, 0, 0, 0]
            assert [
                sum(h[i] * (-1) ** (k - i) * h_dual[k - i] for i in range(k + 1))
                for k in range(6)
            ] == [1, 0, 0, 0, 0, 0]


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
        # t_1^0 -> t'_1^0 (x) t''_0^0: left letter 0*2+1, right letter 0*1+0.
        assert delta.on_vector({gen_flat(1, 0, 2): 1}, 1) == {1 * 2 + 0: 1}

    def test_word_image_is_multiplicative(self):
        delta = Comultiplication(2, 2, 2)
        image = delta.on_vector({0 * 4 + 3: 1}, 2)
        assert len(image) == 4  # one term per middle-index pair
        assert all(c == 1 for c in image.values())

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


def break_image_call(monkeypatch, call, keep):
    """Patch Comultiplication._image so that its call-th call keeps only keep(image)."""
    real = Comultiplication._image
    calls = []

    def patched(self, word):
        calls.append(word)
        image = real(self, word)
        return keep(image) if len(calls) == call + 1 else image

    monkeypatch.setattr(Comultiplication, "_image", patched)


class TestCoalgebraWitnesses:
    """A broken route or leg of Δ fails the check with the exact witness."""

    def test_coassociativity_route_one(self, monkeypatch):
        # dims (1, 1, 1, 2): route one reaches {0, 3} through Δ(t) = t'_0 ⊗ t''_0
        # + t'_1 ⊗ t''_1; without its second term index 3 is missing.
        break_image_call(monkeypatch, 0, lambda image: image[:1])
        rep = coassociativity_check(1, 1, 1, 2)
        assert not rep.passed
        assert rep.witness == {"generator": 0, "index": 3}

    def test_coassociativity_route_two(self, monkeypatch):
        # Route one makes three calls for t; the fourth is route two's first.
        break_image_call(monkeypatch, 3, lambda image: [])
        rep = coassociativity_check(1, 1, 1, 2)
        assert not rep.passed
        assert rep.witness == {"generator": 0, "index": 0}

    def test_counit_law_left_leg(self, monkeypatch):
        # dims (2, 1): call 2 is the left leg of t_1^0, whose image {2, 7}
        # reaches the unit only through index 7.
        break_image_call(monkeypatch, 2, lambda image: image[:1])
        rep = counit_law_check(2, 1)
        assert not rep.passed
        assert rep.witness == {"generator": 1, "left": [0, 0], "right": [0, 1]}

    def test_counit_law_right_leg(self, monkeypatch):
        break_image_call(monkeypatch, 1, lambda image: [])
        rep = counit_law_check(2, 1)
        assert not rep.passed
        assert rep.witness == {"generator": 0, "left": [1, 0], "right": [0, 0]}

    def test_counit_kills_relations(self, monkeypatch, qp):
        # ε kills every generator of (V, V); one altered coefficient at a word
        # t_i^i t_j^j in each of two rows, and the first label is the witness.
        real = coalgebra.frt_relation_generators
        altered = {(1, 0, 1, 0): Fraction(1, 2), (1, 1, 0, 0): 3}
        word = gen_flat(1, 1, 2) * 4 + gen_flat(0, 0, 2)

        def patched(X, Y):
            rows = real(X, Y)
            for label, row in rows:
                if label in altered:
                    row[word] = row.get(word, 0) + altered[label]
            return rows

        monkeypatch.setattr(coalgebra, "frt_relation_generators", patched)
        rep = counit_check(qp)
        assert not rep.passed
        assert rep.witness == {"generator": [1, 0, 1, 0], "value": Fraction(1, 2)}


def dense(image, total):
    """A sparse image {index: coefficient} as a dense tuple of length total."""
    return tuple(image.get(idx, 0) for idx in range(total))


class TestSparseImagesAgainstDenseLoops:
    """The sparse word images give the dense loops' values, entry by entry."""

    @pytest.mark.parametrize("dims", list(product((1, 2, 3), repeat=3)))
    def test_on_word_and_on_vector(self, dims):
        # on_vector of a unit vector is the image of one word.
        dV, dW, dU = dims
        delta = Comultiplication(dV, dW, dU)
        rng = random.Random(dV * 100 + dW * 10 + dU)
        g_count = dV * dW
        for degree in (1, 2, 3):
            size = g_count**degree
            total = (delta.left_size * delta.right_size) ** degree
            codes = rng.sample(range(size), min(size, 3))
            for code in codes:
                word = [code // g_count**e % g_count for e in reversed(range(degree))]
                got = delta.on_vector({code: 1}, degree)
                assert dense(got, total) == dense_on_word(dV, dW, dU, word)
            coords = [0] * size
            for code in codes:
                coords[code] = rng.choice((Fraction(0), 2, -1, Fraction(-5, 3)))
            got = delta.on_vector({c: x for c, x in enumerate(coords) if x != 0}, degree)
            assert all(c != 0 for c in got.values())
            assert dense(got, total) == dense_on_vector(dV, dW, dU, coords, degree)

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


def halved(span):
    """The span of every other basis row of span."""
    return Subspace.from_rows(span.ambient_dim, span.basis.cells[::2])


def halved_spans(monkeypatch, keep):
    """Patch frt_relations so every pair but keep gets every other basis row.

    The checks then test against a smaller target, so they fail with
    witnesses; the references read the same patched function.
    """
    halved_where(monkeypatch, lambda pair: pair != keep)


def halved_where(monkeypatch, halve):
    """Patch frt_relations so the pairs (X, Y) that halve accepts get every other basis row."""
    real = frt.frt_relations

    def patched(X, Y):
        span = real(X, Y)
        return halved(span) if halve((X, Y)) else span

    for module in (frt, coalgebra, epi):
        monkeypatch.setattr(module, "frt_relations", patched)


class TestReportsAgainstTensorSum:
    """The normal-form checks give the reports of the tensor-sum checks on
    dense images, passing and failing alike."""

    @staticmethod
    def triples(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            dims = [rng.randint(1, 3) for _ in range(3)]
            while dims[0] * dims[1] * dims[2] > 12:
                dims = [rng.randint(1, 3) for _ in range(3)]
            yield [random_quadratic(rng, d) for d in dims]

    def test_comult_well_defined(self):
        for V, W, U in self.triples(113, 12):
            assert check_comult_well_defined(V, W, U) == tensor_sum_comult_check(V, W, U)

    def test_comult_against_smaller_targets(self, monkeypatch):
        failing = 0
        for V, W, U in self.triples(127, 12):
            halved_spans(monkeypatch, (V, W))
            rep = check_comult_well_defined(V, W, U)
            assert rep == tensor_sum_comult_check(V, W, U)
            failing += not rep.passed
            monkeypatch.undo()
        assert failing >= 3

    def test_corep_delta(self, monkeypatch):
        rng = random.Random(131)
        failing = 0
        for trial in range(24):
            V, W = random_quadratic(rng, rng.randint(1, 3)), random_quadratic(rng, rng.randint(1, 3))
            if trial % 2:
                # Only the quantum algebra's span, (V, W): the reference
                # takes Im R and Im S from the structures.
                halved_where(monkeypatch, lambda pair: pair == (V, W))
            rep = corep_delta_check(V, W)
            assert rep == tensor_sum_corep_check(V, W)
            failing += not rep.passed
            monkeypatch.undo()
        assert failing >= 3


class TestContainmentWitnesses:
    """A failing containment check reports the first basis row outside the
    target: the report that _containment_report builds over basis.cells,
    with that row found by the rank oracle."""

    @staticmethod
    def pairs(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            yield [random_quadratic(rng, rng.randint(1, 3)) for _ in range(2)]

    @staticmethod
    def first_outside(inner, outer):
        """Index of the first basis row of inner outside outer, or None."""
        rows = enumerate(inner.basis.cells)
        return next((i for i, row in rows if not oracle_contains(outer.basis.cells, row)), None)

    def hom_equals_frt_witness(self, V, W):
        """Assert the report of verify_hom_equals_frt, and name the span whose
        row is the witness: "pipeline", "explicit", or None on a pass."""
        pipeline = frt.column_space(hom_space(W, V).structure_at(2))
        explicit = frt.frt_relations(V, W)
        dims = {"pipeline": pipeline.dim, "explicit": explicit.dim}
        spans = {"pipeline": pipeline, "explicit": explicit}
        name, bad = "pipeline", self.first_outside(pipeline, explicit)
        if bad is None:
            name, bad = "explicit", self.first_outside(explicit, pipeline)
        rows = spans[name].basis.cells
        assert verify_hom_equals_frt(V, W) == _containment_report(
            "hom-equals-frt", bad, rows, dims, "vector"
        )
        return None if bad is None else name

    def test_hom_equals_frt_pipeline_row_outside(self, monkeypatch):
        # The explicit span is halved, so a row of the pipeline's falls outside it.
        halved_spans(monkeypatch, None)
        witnesses = [self.hom_equals_frt_witness(V, W) for V, W in self.pairs(137, 10)]
        assert witnesses.count("pipeline") >= 6
        assert "explicit" not in witnesses

    def test_hom_equals_frt_explicit_row_outside(self, monkeypatch):
        # The pipeline's span is halved, so it lies in the explicit span and
        # a row of the explicit span is the witness.
        real = frt.column_space
        monkeypatch.setattr(frt, "column_space", lambda m: halved(real(m)))
        witnesses = [self.hom_equals_frt_witness(V, W) for V, W in self.pairs(139, 10)]
        assert witnesses.count("explicit") >= 6
        assert "pipeline" not in witnesses

    def test_manin_epi_witness(self, monkeypatch):
        halved_spans(monkeypatch, None)
        failing = 0
        for V, W in self.pairs(149, 12):
            manin = manin_hom_relations(apply_U(V), apply_U(W))
            span = frt.frt_relations(V, W)
            dims = {"manin": manin.dim, "frt": span.dim}
            bad = self.first_outside(manin, span)
            name = "manin-relations-in-frt"
            want = _containment_report(name, bad, manin.basis.cells, dims, "vector")
            assert check_manin_epi(V, W) == want
            failing += bad is not None
        assert failing >= 5

    def test_U_epi_witness(self, monkeypatch):
        # With the factors of the product swapped, generators of the product
        # ideal of W⊠V fall outside the circle ideal of U(V)∘U(W).  The
        # reference builds its failing report with _containment_report over
        # the dense basis of the degree's relations.
        real = spaces.boxtimes
        for module in (epi, spaces):
            monkeypatch.setattr(module, "boxtimes", lambda V, W: real(W, V))
        rng = random.Random(151)
        failing = 0
        for _ in range(8):
            dV, dW = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            V = qcomm_space(rng.sample(PRIMES, 3), dV)
            W = qcomm_space([-q for q in rng.sample(PRIMES, 3)], dW)
            rep = check_U_epi(V, W, 3)
            assert rep == tensor_sum_U_epi(V, W, 3)
            failing += not rep.passed
        assert failing >= 3


class TestManin:
    def test_full_source_relations_annihilate(self, qp):
        # Full relation space has zero annihilator: the hom algebra is free.
        A = apply_U(qp)
        full = PresentedAlgebra(2, {2: full_space(4)})
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
        R3 = cubic_matrix()
        direct = boxtimes_conjugation(-R3.transpose(), R3, 2, 2, 3)
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
