"""Reference implementations the package's fast paths are tested against.

Most are independent brute-force oracles, deliberately naive and separate
from the package implementation: plain Fraction Gauss-Jordan elimination
and explicit loops over tensor word indices.  Derived constants asserted in
the tests were produced by these routines and are re-derived here wherever
that stays cheap.

These groups are former library code kept as references:

- embed_at and embed_and_sum_component give the ambient-space ideal
  components (every positional embedding of the relations, summed with the
  package's elimination) that the normal-word recursion replaced;
- circle_ideal_component builds the degree-n ideal of the circle product
  as dense Kronecker rows pulled back through φ, the span that the
  tensor-sum containment test and the Hilbert-series dimensions of
  check_U_epi replaced;
- permutation_matrix and the matrices phi_iso, flip and tau23 materialize
  the index tables the package works with (encode_digits spells word
  codes, pull_row applies the inverse of a table), so tests can compare
  the tables and the products built from them with literal matrix
  conjugation;
- space_to_dict and dumps_reference spell a space file through the JSON
  encoder, the path the joined-string writer replaced;
- ev_reference and coev_reference run check_morphism on the materialized
  products dagger(V) ⊠ V and V ⊠ dagger(V), the path the one-vector ev/coev
  checks replaced.  They call spaces.dagger through the module, so a test
  that patches it changes both paths.
"""

import json
from fractions import Fraction
from itertools import product

from eqspace import spaces
from eqspace.linalg import Matrix, Subspace, kronecker
from eqspace.report import VerificationReport
from eqspace.tensors import phi_table, tau23_table


def naive_rref(rows, ncols):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return work[:rank]


def oracle_rank(rows):
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    return len(naive_rref(rows, len(rows[0])))


def oracle_contains(span_rows, vec):
    base = [list(r) for r in span_rows]
    return oracle_rank(base + [list(vec)]) == oracle_rank(base)


def embedding_rows(rel_rows, relation_degree, n, d):
    """All positional embeddings of the relation vectors into degree n."""
    out = []
    for pos in range(n - relation_degree + 1):
        rest = n - relation_degree - pos
        for u in product(range(d), repeat=pos):
            for w in product(range(d), repeat=rest):
                for r in rel_rows:
                    vec = [Fraction(0)] * (d**n)
                    for idx, c in enumerate(r):
                        if c == 0:
                            continue
                        digits = []
                        t = idx
                        for _ in range(relation_degree):
                            t, dig = divmod(t, d)
                            digits.append(dig)
                        digits.reverse()
                        flat = 0
                        for dig in list(u) + digits + list(w):
                            flat = flat * d + dig
                        vec[flat] += c
                    out.append(vec)
    return out


def oracle_graded_dims(gen_dim, relations, max_degree):
    """Brute-force Hilbert series of T(V)/(relations by degree)."""
    dims = []
    for n in range(max_degree + 1):
        if n == 0:
            dims.append(1)
            continue
        rows = []
        for m, rel_rows in relations.items():
            if m <= n:
                rows.extend(embedding_rows(rel_rows, m, n, gen_dim))
        dims.append(gen_dim**n - oracle_rank(rows))
    return dims


def embed_at(rel, n, pos, d):
    """The subspace V^{⊗pos} ⊗ rel ⊗ V^{⊗(n-k-pos)} inside V^{⊗n}.

    rel must live in V^{⊗k} with d^k = rel.ambient_dim.
    """
    k = 0
    size = 1
    while size < rel.ambient_dim:
        size *= d
        k += 1
    if size != rel.ambient_dim:
        raise ValueError("relation ambient dimension is not a power of d")
    if pos < 0 or pos > n - k:
        raise ValueError(f"position {pos} out of range for degree {n}")
    left = Matrix.identity(d**pos)
    right = Matrix.identity(d ** (n - k - pos))
    rows = kronecker(kronecker(left, rel.basis), right)
    return Subspace.from_rows(d**n, rows.cells)


def embed_and_sum_component(gen_dim, relations, n):
    """Degree-n ideal component as the span of every positional embedding.

    relations maps degree to Subspace.  This is the ambient-space reference
    for the normal-word recursion of PresentedAlgebra.
    """
    rows = []
    for m, rel in sorted(relations.items()):
        if m > n or rel.dim == 0:
            continue
        for pos in range(n - m + 1):
            rows.extend(embed_at(rel, n, pos, gen_dim).basis.cells)
    return Subspace.from_rows(gen_dim**n, rows)


def oracle_normal_forms(relations, gen_dim, n, vectors):
    """Complement words and the residues of vectors modulo the degree-n ideal.

    relations maps degree to plain relation rows.  The ideal is spanned by
    the naive embeddings and reduced by plain Gauss-Jordan elimination; the
    complement words are its non-pivot columns.
    """
    ncols = gen_dim**n
    rows = []
    for m, rel_rows in relations.items():
        if m <= n:
            rows.extend(embedding_rows(rel_rows, m, n, gen_dim))
    red = naive_rref(rows, ncols) if rows else []
    pivots = [next(c for c, x in enumerate(r) if x != 0) for r in red]
    pivot_set = set(pivots)
    words = [w for w in range(ncols) if w not in pivot_set]
    residues = []
    for vec in vectors:
        res = [Fraction(x) for x in vec]
        for row, p in zip(red, pivots):
            c = res[p]
            if c != 0:
                res = [x - c * y for x, y in zip(res, row)]
        residues.append(tuple(res[w] for w in words))
    return words, residues


def circle_ideal_component(A, B, n):
    """Degree-n ideal of the circle product A∘B, φ⁻¹(I_A(n)⊗full + full⊗I_B(n)).

    A and B are PresentedAlgebra instances; the span is built densely from
    Kronecker rows and eliminated in k^((dA·dB)^n).
    """
    dA, dB = A.gen_dim, B.gen_dim
    table = phi_table(dA, dB, n)
    rows = []
    comp_a = A.ideal_component(n)
    if comp_a.dim:
        rows.extend(kronecker(comp_a.basis, Matrix.identity(dB**n)).cells)
    comp_b = B.ideal_component(n)
    if comp_b.dim:
        rows.extend(kronecker(Matrix.identity(dA**n), comp_b.basis).cells)
    return Subspace.from_rows((dA * dB) ** n, [pull_row(row, table) for row in rows])


def pull_row(row, table):
    """Coordinates of P^-1·x for the row form of x (out[i] = row[table[i]])."""
    return [row[table[i]] for i in range(len(table))]


def encode_digits(digits, radix):
    code = 0
    for r in digits:
        if not 0 <= r < radix:
            raise ValueError(f"digit {r} out of range for radix {radix}")
        code = code * radix + r
    return code


def permutation_matrix(table):
    """Matrix P with P·e_src = e_table[src]."""
    n = len(table)
    cells = [[0] * n for _ in range(n)]
    for src, dst in enumerate(table):
        cells[dst][src] = 1
    return Matrix(cells, cols=n)


def phi_iso(dV, dW, n):
    """Permutation matrix of the shuffle (V⊗W)^{⊗n} -> V^{⊗n} ⊗ W^{⊗n}."""
    return permutation_matrix(phi_table(dV, dW, n))


def flip_table(dV, dW):
    table = [0] * (dV * dW)
    for a in range(dV):
        for b in range(dW):
            table[a * dW + b] = b * dV + a
    return table


def flip(dV, dW):
    """Permutation matrix of V⊗W -> W⊗V, v⊗w -> w⊗v."""
    return permutation_matrix(flip_table(dV, dW))


def tau23(dA, dB):
    """Permutation matrix of the middle-two swap (a,a',b,b') -> (a,b,a',b')."""
    return permutation_matrix(tau23_table(dA, dB))


def space_to_dict(V, note=None):
    """The JSON object of a space file: dim, structure and an optional note."""
    data = {
        "dim": V.dim,
        "structure": [
            {"degree": n, "matrix": [list(map(str, row)) for row in mat.cells]}
            for n, mat in V.structure_items()
        ],
    }
    if note is not None:
        data["generators"] = note
    return data


def dumps_reference(data):
    """Canonical JSON text: sorted keys, indent 2, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def ev_reference(V):
    D = spaces.dagger(V)
    rep = spaces.check_morphism(spaces.ev_row(V.dim), spaces.boxtimes(D, V), spaces.unit_K())
    return VerificationReport("ev-morphism", rep.passed, rep.witness, rep.dimensions)


def coev_reference(V):
    D = spaces.dagger(V)
    rep = spaces.check_morphism(
        spaces.coev_column(V.dim), spaces.unit_K(), spaces.boxtimes(V, D)
    )
    return VerificationReport("coev-morphism", rep.passed, rep.witness, rep.dimensions)
