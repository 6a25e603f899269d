import random
from fractions import Fraction
from math import comb, gcd

import pytest

from eqspace import (
    EquippedSpace,
    Matrix,
    PresentedAlgebra,
    Subspace,
    apply_U,
    boxtimes,
    check_U_epi,
    column_space,
    hom_space,
    structure_projector,
)
from eqspace import linalg
from eqspace.algebras import _Degree
from eqspace.linalg import _scaled
from eqspace.frt import _first_outside_tensor
from eqspace.sampling import random_equipped, random_matrix
from conftest import DJ_MATRIX, PRIMES, QP_MATRIX, jimbo_matrix, qcomm_space, random_quadratic
from oracles import (
    TensorSum,
    circle_ideal_component,
    complement_words,
    dense_apply,
    embed_and_sum_component,
    full_space,
    ideal_component,
    matrix_kronecker,
    matrix_mul,
    oracle_graded_dims,
    normal_form,
    oracle_normal_forms,
    tensor_sum_U_epi,
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
        A = apply_U(EquippedSpace(1, {}))
        assert A.hilbert(4) == [1, 1, 1, 1, 1]


class TestIdealComponent:
    def test_free_algebra_zero(self):
        A = PresentedAlgebra(2)
        assert all(ideal_component(A, n).dim == 0 for n in range(4))

    def test_quantum_plane_degree_two(self):
        A = qp_algebra()
        assert ideal_component(A, 2) == QP_REL

    def test_quantum_plane_degree_three(self):
        # Frozen from the brute-force embedding oracle.
        A = qp_algebra()
        assert ideal_component(A, 3).dim == 4
        assert A.graded_dim(3) == 4

    def test_low_degrees_are_zero(self):
        A = qp_algebra()
        assert ideal_component(A, 0).dim == 0
        assert ideal_component(A, 1).dim == 0


class TestHilbert:
    def test_free_series(self):
        assert PresentedAlgebra(2).hilbert(3) == [1, 2, 4, 8]

    def test_quantum_plane_series(self):
        assert qp_algebra().hilbert(4) == [1, 2, 3, 4, 5]

    def test_no_degree_limit(self):
        assert qp_algebra().hilbert(8) == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_quantum_matrix_series(self, qp):
        # hom(qp, qp) presents the quantum 2x2 matrices, a PBW algebra on
        # four generators: dim A_n = C(n+3, 3).
        assert apply_U(hom_space(qp, qp)).hilbert(6) == [comb(n + 3, 3) for n in range(7)]

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
        free = PresentedAlgebra(1)
        assert free.graded_dim(1500) == 1
        assert normal_form(PresentedAlgebra(1), 1500, (1,)) == (1,)
        killed = PresentedAlgebra(1, {2: Subspace.from_rows(1, [[1]])})
        assert ideal_component(killed, 1500).dim == 1
        assert killed.graded_dim(1500) == 0
        assert normal_form(killed, 1500, (1,)) == ()


class TestNormalForm:
    def test_ideal_elements_vanish(self):
        A = qp_algebra()
        assert normal_form(A, 2, (0, 1, -2, 0)) == (0, 0, 0)

    def test_free_algebra_is_identity(self):
        A = PresentedAlgebra(2)
        assert normal_form(A, 2, (1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_quantum_plane_reduction(self):
        # Complement words are (v0v0, v1v0, v1v1); the pivot word v0v1
        # rewrites to twice v1v0.
        A = qp_algebra()
        assert complement_words(A, 2) == [0, 2, 3]
        assert normal_form(A, 2, (0, 0, 1, 0)) == (0, 1, 0)
        assert normal_form(A, 2, (0, 1, 0, 0)) == (0, 2, 0)

    def test_integer_coordinates_stay_ints(self):
        A = qp_algebra()
        for w in range(4):
            nf = normal_form(A, 2, tuple(int(i == w) for i in range(4)))
            assert all(type(x) is int for x in nf)
        half = normal_form(A, 2, (0, Fraction(1, 2), 0, 0))
        assert half == (0, 1, 0) and type(half[1]) is Fraction

    def test_relation_rows_with_unsorted_keys(self):
        # The second row is {3: 3, 1: 1}: its lead is not its first key.
        M = Matrix._trusted([{0: 1, 3: 2}, {3: 3, 1: 1}], 4)
        assert list(M.nonzeros[1]) == [3, 1]
        A = PresentedAlgebra(2, {2: Subspace(4, M)})
        rows_by_degree = {2: M.cells}
        assert A.hilbert(3) == oracle_graded_dims(2, rows_by_degree, 3)
        assert normal_form(A, 2, (1, 0, 0, 0)) == (0, -2)
        for n in range(4):
            units = [tuple(int(i == w) for i in range(2**n)) for w in range(2**n)]
            words, residues = oracle_normal_forms(rows_by_degree, 2, n, units)
            assert complement_words(A, n) == words
            for vec, expected in zip(units, residues):
                assert normal_form(A, n, vec) == expected

    def test_kernel_dimension_matches_ideal(self):
        rng = random.Random(29)
        A = apply_U(random_quadratic(rng, 2))
        n = 3
        kernel_count = 0
        for w in range(2**n):
            coords = tuple(int(i == w) for i in range(2**n))
            nf = normal_form(A, n, coords)
            if all(x == 0 for x in nf):
                kernel_count += 1
        # Linearity: basis words mapping to zero span exactly the pivots.
        assert kernel_count == ideal_component(A, n).dim

    def test_ideal_combinations_die(self):
        rng = random.Random(31)
        A = apply_U(random_quadratic(rng, 2))
        comp = ideal_component(A, 3)
        for _ in range(10):
            vec = [0] * comp.ambient_dim
            for row in comp.basis.cells:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                vec = [x + c * y for x, y in zip(vec, row)]
            nf = normal_form(A, 3, tuple(vec))
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
    A = PresentedAlgebra(gen_dim, relations)
    assert A.hilbert(max_degree) == oracle_graded_dims(gen_dim, rows_by_degree, max_degree)
    for n in range(max_degree + 1):
        assert ideal_component(A, n) == embed_and_sum_component(gen_dim, relations, n)
        size = gen_dim**n
        vectors = [tuple(int(i == w) for i in range(size)) for w in range(size)]
        vectors += [tuple(row) for row in random_rows(rng, size, 2)]
        words, residues = oracle_normal_forms(rows_by_degree, gen_dim, n, vectors)
        assert complement_words(A, n) == words
        for vec, expected in zip(vectors, residues):
            assert normal_form(A, n, vec) == expected


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


class TestLeastRelationDegree:
    """The least relation degree is no special case: its one elimination, in
    the word codes of B_{n-1}×V, gets the canonical relation span back."""

    def test_least_degree_runs_one_elimination(self, monkeypatch):
        rng = random.Random(73)
        for d, count in [(2, 1), (2, 3), (3, 2), (3, 9), (2, 0)]:
            rel = Subspace.from_rows(d * d, random_rows(rng, d * d, count))
            A = PresentedAlgebra(d, {2: rel})
            assert A.graded_dim(1) == d
            calls = []
            real = linalg._rref_rows
            # The stand-in records the degree being built: the cache holds the lower ones.
            monkeypatch.setattr(
                linalg, "_rref_rows", lambda rows: calls.append(len(A._degrees)) or real(rows)
            )
            assert A.graded_dim(2) == d * d - rel.dim
            assert calls == [2]
            monkeypatch.undo()
            # The recursion eliminates rel's rows again in the coordinates B_1×V.
            recursion = _Degree(
                linalg._rref_rows(_scaled(r)[1] for r in rel.basis.nonzeros), range(d * d)
            )
            assert A._degree(2).words == recursion.words
            assert A._degree(2).rules == recursion.rules
            words, _ = oracle_normal_forms({2: rel.basis.cells}, d, 2, [])
            assert complement_words(A, 2) == words

    def test_higher_degrees_still_eliminate(self, monkeypatch):
        rng = random.Random(79)
        rows = {2: random_rows(rng, 4, 1), 3: random_rows(rng, 8, 2)}
        relations = {m: Subspace.from_rows(2**m, r) for m, r in rows.items()}
        A = PresentedAlgebra(2, relations)
        assert A.graded_dim(1) == 2
        calls = []
        real = linalg._rref_rows
        monkeypatch.setattr(
            linalg, "_rref_rows", lambda rows: calls.append(len(A._degrees)) or real(rows)
        )
        assert A.hilbert(4) == oracle_graded_dims(2, rows, 4)
        # Every degree from the least relation degree on eliminates in B_{n-1}×V.
        assert calls == [2, 3, 4]

    def test_the_core_gets_nonzero_integer_entries(self, monkeypatch):
        # These draws make _combine sums that cancel at some words, so rows
        # with a zero entry reach the core unless _combine drops them.
        rng = random.Random(67)
        cases = []
        for _ in range(3):
            rows = {2: random_rows(rng, 4, 1), 3: random_rows(rng, 8, rng.randint(1, 3))}
            relations = {m: Subspace.from_rows(2**m, r) for m, r in rows.items()}
            cases.append((PresentedAlgebra(2, relations), oracle_graded_dims(2, rows, 5)))
        # Here B_2 and B_3 are not every word, so column indices and word codes differ.
        cases.append((apply_U(qcomm_space((2, 3, 5), 3)), [comb(k + 2, 2) for k in range(5)]))
        real = linalg._rref_rows
        seen = []

        def core(A, rows):
            rows = list(rows)
            seen.extend(x for r in rows for x in r.values())
            assert all(type(x) is int and x for r in rows for x in r.values())
            # Every key is a word b·d + x with b in B_{n-1}, n the degree being built.
            prev = set(A._degrees[len(A._degrees) - 1].words)
            assert all(k // A.gen_dim in prev for r in rows for k in r)
            return real(rows)

        for A, expected in cases:
            monkeypatch.setattr(linalg, "_rref_rows", lambda rows, A=A: core(A, rows))
            assert A.hilbert(len(expected) - 1) == expected
        assert seen


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
            A, B = apply_U(V), apply_U(W)
            product_relations = apply_U(boxtimes(V, W)).relations
            for n in (2, 3):
                product = embed_and_sum_component(4, product_relations, n)
                circle = circle_ideal_component(A, B, n)
                assert circle.first_outside(product.basis.cells) is None
                assert rep.dimensions[f"product_ideal_{n}"] == product.dim
                assert rep.dimensions[f"circle_ideal_{n}"] == circle.dim


def ideal_vector(rng, A, B, n):
    """A sum of products x⊗y with x in I_A(n) or y in I_B(n), dense."""
    comps = (ideal_component(A, n), ideal_component(B, n))
    sizes = (A.gen_dim**n, B.gen_dim**n)
    vec = [0] * (sizes[0] * sizes[1])
    for _ in range(3):
        side = rng.randrange(2)
        rows = comps[side].basis.cells
        if not rows:
            continue
        inside = [0] * sizes[side]
        for row in rng.sample(rows, min(2, len(rows))):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            inside = [x + c * y for x, y in zip(inside, row)]
        other = [rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(sizes[1 - side])]
        x, y = (inside, other) if side == 0 else (other, inside)
        vec = [v + x[k // sizes[1]] * y[k % sizes[1]] for k, v in enumerate(vec)]
    return vec


def small_ideal_algebra(rng, d, support):
    """A presentation with at most d^m/2 random relation rows in each degree m,
    so that its ideal components are proper."""
    relations = {
        m: Subspace.from_rows(d**m, random_rows(rng, d**m, rng.randint(0, d**m // 2)))
        for m in support
    }
    return PresentedAlgebra(d, relations)


def basis_changed(relation, g):
    """The span of g⊗g applied to one relation vector of degree 2."""
    g = Matrix(g)
    return Subspace.from_rows(g.rows**2, [dense_apply(matrix_kronecker(g, g).cells, relation)])


def basis_changed_pair():
    """q-commutation relations moved by dense, non-integral changes of
    basis, so the word normal forms are dense with fractional
    coefficients, as in the basis-changed benchmark inputs."""
    f = Fraction
    A = PresentedAlgebra(2, {2: basis_changed([0, 1, -2, 0], [[1, f(1, 2)], [f(-1, 3), 1]])})
    B = PresentedAlgebra(2, {2: basis_changed([0, 1, f(1, 3), 0], [[2, f(1, 3)], [f(3, 4), 1]])})
    return A, B


class TestIntegerRules:
    """Each word's rule (m, nf) is the canonical integer form of its normal
    form: m·w = sum of nf[t]·t with m >= 1 least."""

    def test_rules_are_canonical_and_match_oracle(self):
        rng = random.Random(103)
        algebras = list(basis_changed_pair())
        for support in ((2,), (3,), (2, 3)):
            for d in (2, 2, 3):
                algebras.append(small_ideal_algebra(rng, d, support))
        fractional = 0
        for alg in algebras:
            d = alg.gen_dim
            relations = {m: rel.basis.cells for m, rel in alg.relations.items()}
            for n in range(4):
                units = [[int(i == w) for i in range(d**n)] for w in range(d**n)]
                normal, residues = oracle_normal_forms(relations, d, n, units)
                for w, residue in enumerate(residues):
                    m, nf = alg._word_nf(n, w)
                    assert m >= 1 and gcd(m, *nf.values()) == 1
                    assert set(nf) <= set(normal)
                    expected = {t: x for t, x in zip(normal, residue) if x}
                    assert {t: Fraction(e, m) for t, e in nf.items()} == expected
                    fractional += m > 1
        assert fractional >= 20


def sparse(vec):
    return {k: c for k, c in enumerate(vec) if c != 0}


class TestFirstOutsideTensor:
    """The normal-form test in A_n⊗B_n against the tensor-sum span of the
    assembled ideal components."""

    @pytest.mark.parametrize(
        "supports",
        [((2,), (2,)), ((3,), (3,)), ((2, 3), (2, 3)), ((2,), (3,))],
        ids=["2-2", "3-3", "23-23", "2-3"],
    )
    def test_matches_tensor_sum_oracle(self, supports):
        rng = random.Random(83 + sum(map(sum, supports)))
        outside = 0
        for _ in range(6):
            dA, dB = rng.randint(1, 3), rng.randint(1, 3)
            n = 3 if dA * dB <= 4 else 2
            A = small_ideal_algebra(rng, dA, supports[0])
            B = small_ideal_algebra(rng, dB, supports[1])
            outside += self.compare_with_oracle(rng, A, B, n)
        assert outside >= 3

    def test_basis_changed_pair_matches_tensor_sum_oracle(self):
        A, B = basis_changed_pair()
        for alg in (A, B):
            rules = [rule for w in range(8) for rule in [alg._word_nf(3, w)] if rule != (1, {w: 1})]
            assert max(len(nf) for _, nf in rules) >= 3
            assert any(m > 1 for m, _ in rules)
        rng = random.Random(97)
        outside = sum(self.compare_with_oracle(rng, A, B, n) for n in (2, 3, 3))
        assert outside >= 3

    @staticmethod
    def compare_with_oracle(rng, A, B, n):
        """Test _first_outside_tensor against the oracle on drawn vectors; count those outside."""
        target = TensorSum(ideal_component(A, n), ideal_component(B, n))
        size = (A.gen_dim * B.gen_dim) ** n
        vectors = [ideal_vector(rng, A, B, n) for _ in range(4)]
        vectors += [random_matrix(rng, 1, size).cells[0] for _ in range(2)]
        vectors.append([0] * size)
        rng.shuffle(vectors)
        for k in range(len(vectors) + 1):
            got = _first_outside_tensor(A, B, n, map(sparse, vectors[k:]))
            assert got == target.first_outside(vectors[k:])
        inside = [v for v in vectors if target.first_outside([v]) is None]
        assert len(inside) >= 5
        assert _first_outside_tensor(A, B, n, map(sparse, inside)) is None
        return len(vectors) - len(inside)

    def test_zero_and_full_ideals(self):
        free, killed = PresentedAlgebra(2), PresentedAlgebra(2, {2: full_space(4)})
        vectors = [{}, {5: 1}, {0: 1, 15: Fraction(-1, 2)}]
        assert _first_outside_tensor(free, free, 2, vectors) == 1
        assert _first_outside_tensor(free, free, 2, vectors[:1]) is None
        for A, B in ((killed, free), (free, killed), (killed, killed)):
            assert _first_outside_tensor(A, B, 2, vectors) is None

    def test_generator_is_consumed_lazily(self):
        A = qp_algebra()
        seen = []

        def images():
            # (v0v1 - 2 v1v0)⊗v1v1 is in I_A(2)⊗full; v0v0⊗v0v0 is not.
            for vec in ({1 * 4 + 3: 1, 2 * 4 + 3: -2}, {0: 1}, {5: 1}):
                seen.append(vec)
                yield vec

        assert _first_outside_tensor(A, qp_algebra(), 2, images()) == 1
        assert len(seen) == 2


class TestClosedFormsAtScale:
    """Closed forms at sizes no brute-force oracle reaches: each runs
    eliminations of thousands of sparse rows in up to 5,625 columns."""

    def test_jimbo_matrix_at_two_is_dj(self):
        assert jimbo_matrix(2, 2) == DJ_MATRIX

    def test_hom_of_q_commuting_space_is_polynomial(self):
        qc3 = qcomm_space((2, 3, 5), 3)
        assert apply_U(hom_space(qc3, qc3)).hilbert(5) == [comb(k + 8, 8) for k in range(6)]

    def test_gl_q3_frt_algebra_is_polynomial_sized(self):
        J = EquippedSpace(3, {2: jimbo_matrix(3, 2)})
        assert apply_U(hom_space(J, J)).hilbert(5) == [comb(k + 8, 8) for k in range(6)]

    def test_q_commuting_dim_five_epi(self):
        V = qcomm_space(PRIMES, 5)
        W = qcomm_space([-p for p in PRIMES[1:]], 5)
        rep = check_U_epi(V, W, 3)
        assert rep.passed
        # 25² − C(6, 2)² and 25³ − C(7, 3)²: both sides are polynomial-sized.
        assert rep.dimensions == {
            "product_ideal_2": 400,
            "circle_ideal_2": 400,
            "product_ideal_3": 14400,
            "circle_ideal_3": 14400,
        }


class TestReportsAgainstTensorSum:
    """check_U_epi gives the report of the same check run on assembled
    ideal components."""

    def test_U_epi(self):
        rng = random.Random(89)
        supports = [(2,), (3,), (2, 3)]
        for _ in range(16):
            dV, dW = rng.choice([(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
            V = random_equipped(rng, dV, rng.choice(supports))
            W = random_equipped(rng, dW, rng.choice(supports))
            N = rng.randint(2, 3)
            assert check_U_epi(V, W, N) == tensor_sum_U_epi(V, W, N)


class TestStructureProjector:
    def test_full_space(self):
        assert structure_projector(full_space(3)) == Matrix.identity(3)

    def test_zero_space(self):
        assert structure_projector(Subspace.zero(3)) == Matrix.zero(3, 3)

    def test_quantum_plane_projector(self, qp):
        P = structure_projector(QP_REL)
        assert matrix_mul(P, P) == P
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
            assert matrix_mul(P, P) == P
            assert column_space(P) == rel

