import random

import pytest

from eqspace import Matrix, Subspace
from eqspace.tensors import (
    decode_index,
    invert_table,
    phi_inverse,
    phi_table,
    tau23_table,
)
from oracles import (
    dense_apply,
    embed_at,
    encode_digits,
    flip,
    full_space,
    matrix_kronecker,
    matrix_mul,
    permutation_matrix,
    phi_iso,
    phi_table_reference,
    pull_row,
    push_row,
    tau23,
)


def is_permutation(m: Matrix) -> bool:
    if m.rows != m.cols:
        return False
    for row in m.cells:
        if sum(row) != 1 or any(x not in (0, 1) for x in row):
            return False
    return all(sum(col) == 1 for col in m.transpose().cells)


def test_encode_decode_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        d = rng.randint(1, 4)
        n = rng.randint(0, 4)
        digits = tuple(rng.randrange(d) for _ in range(n))
        assert decode_index(encode_digits(digits, d), d, n) == digits


class TestPhi:
    def test_degree_zero_and_one_are_identity(self):
        assert phi_iso(2, 3, 0) == Matrix.identity(1)
        assert phi_iso(2, 3, 1) == Matrix.identity(6)

    def test_documented_pair_example(self):
        # ((a,b),(a',b')) = ((0,1),(1,0)) flattens to source 6 and must land
        # on (a,a',b,b') = (0,1,1,0), flattening to 6 as well.
        src = encode_digits((0 * 2 + 1, 1 * 2 + 0), 4)
        dst = encode_digits((0, 1), 2) * 4 + encode_digits((1, 0), 2)
        assert src == dst == 6
        m = phi_iso(2, 2, 2)
        assert m[dst, src] == 1

    def test_recurrence_matches_digit_decoding(self):
        for dV in (1, 2, 3):
            for dW in (1, 2, 3):
                for n in range(4):
                    table = phi_table(dV, dW, n)
                    assert table == phi_table_reference(dV, dW, n), (dV, dW, n)
                    inv = phi_inverse(dV, dW, n)
                    assert type(inv) is tuple and list(inv) == invert_table(table)

    def test_inverse_built_once(self):
        phi_inverse.cache_clear()
        assert phi_inverse(2, 3, 2) is phi_inverse(2, 3, 2)
        assert phi_inverse.cache_info().misses == 1

    def test_orthogonality(self):
        m = phi_iso(2, 2, 2)
        assert matrix_mul(m, m.transpose()) == Matrix.identity(16)

    def test_permutation_shape(self):
        for dv, dw, n in [(1, 1, 3), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
            assert is_permutation(phi_iso(dv, dw, n))


class TestFlip:
    def test_trivial(self):
        assert flip(1, 1) == Matrix([[1]])

    def test_documented_example(self):
        # (a,b) = (0,1) at column 1 maps to (b,a) = (1,0) at row 2.
        m = flip(2, 2)
        assert m[2, 1] == 1

    def test_inverse_pairing(self):
        for dv, dw in [(2, 2), (2, 3), (3, 2)]:
            assert matrix_mul(flip(dw, dv), flip(dv, dw)) == Matrix.identity(dv * dw)

    def test_permutation_shape(self):
        assert is_permutation(flip(3, 4))


class TestTau23:
    def test_trivial(self):
        assert tau23(1, 1) == Matrix([[1]])

    def test_involution_when_square(self):
        m = tau23(2, 2)
        assert matrix_mul(m, m) == Matrix.identity(16)

    def test_documented_digit_examples(self):
        table = tau23_table(2, 2)
        fixed = encode_digits((0, 1, 1, 0), 2)
        assert table[fixed] == fixed
        src = encode_digits((0, 0, 1, 1), 2)
        dst = encode_digits((0, 1, 0, 1), 2)
        assert table[src] == dst

    def test_inverse_of_phi_at_degree_two(self):
        for da, db in [(2, 2), (2, 3), (3, 2)]:
            assert tau23(da, db) == phi_iso(da, db, 2).transpose()

    def test_permutation_shape(self):
        assert is_permutation(tau23(2, 3))


class TestRowPermutationFastPath:
    def test_push_and_pull_agree_with_matrix(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 8)
            table = list(range(n))
            rng.shuffle(table)
            m = permutation_matrix(table)
            vec = [rng.randint(-3, 3) for _ in range(n)]
            assert list(dense_apply(m.cells, vec)) == push_row(vec, table)
            assert list(dense_apply(m.transpose().cells, vec)) == pull_row(vec, table)
            assert pull_row(push_row(vec, table), table) == vec

    def test_invert_table(self):
        table = phi_table(2, 3, 2)
        inv = invert_table(table)
        assert [table[i] for i in inv] == list(range(len(table)))


class TestEmbedAt:
    def test_full_relation_gives_full_space(self):
        full = full_space(4)
        for pos in (0, 1):
            assert embed_at(full, 3, pos, 2) == full_space(8)

    def test_zero_relation_gives_zero(self):
        assert embed_at(Subspace.zero(4), 3, 1, 2) == Subspace.zero(8)

    def test_quantum_plane_embedding_at_zero(self):
        rel = Subspace.from_rows(4, [[0, 1, -2, 0]])
        got = embed_at(rel, 3, 0, 2)
        expected = Subspace.from_rows(
            8, matrix_kronecker(rel.basis, Matrix.identity(2)).cells
        )
        assert got == expected
        assert got.dim == 2

    def test_dimension_formula(self):
        rng = random.Random(13)
        for _ in range(20):
            d = rng.randint(1, 3)
            k = rng.randint(1, 2)
            n = rng.randint(k, k + 2)
            pos = rng.randint(0, n - k)
            rows = [
                [rng.randint(-2, 2) for _ in range(d**k)] for _ in range(rng.randint(0, 2))
            ]
            rel = Subspace.from_rows(d**k, rows)
            got = embed_at(rel, n, pos, d)
            assert got.dim == d**pos * rel.dim * d ** (n - k - pos)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            embed_at(Subspace.zero(4), 3, 2, 2)
