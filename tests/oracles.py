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
- ideal_component assembles the degree-n ideal of a presented algebra in
  k^(d^n) from the normal forms of its words, and TensorSum tests
  membership in X⊗k^b + k^a⊗Y block by block; they are the spans that the
  normal-form test frt._first_outside_tensor replaced.
  tensor_sum_comult_check, tensor_sum_corep_check and tensor_sum_U_epi are
  the checks as they ran on those spans, with dense images;
- permutation_matrix and the matrices phi_iso, flip and tau23 materialize
  the index tables the package works with (encode_digits spells word
  codes, push_row and pull_row apply a table and its inverse to a
  coordinate row), so tests can compare the tables and the products built
  from them with literal matrix conjugation;
- space_to_dict and dumps_reference spell a space file through the JSON
  encoder, the path the joined-string writer replaced;
- read_space_reference and read_relations_reference decode a whole file
  with json.loads and validate the decoded object (space_from_dict for a
  space file), the path the streaming readers replaced;
- phi_table_reference decodes every source index digit by digit, the loop
  that the digit recurrence of tensors.phi_table replaced;
- ev_reference and coev_reference run check_morphism on the materialized
  products dagger(V) ⊠ V and V ⊠ dagger(V), the path the pairing-row sums
  of the ev/coev checks replaced, with the pairing row ev_row and column
  coev_column that were suites functions.  They call spaces.dagger through
  the module, and dagger calls spaces._dual, so a test that patches _dual
  in spaces and in suites changes both paths;
- snake_composites multiplies the Kronecker products (ev⊗I)(I⊗coev) and
  (I⊗ev)(coev⊗I), and snake_reference is the snake-identity check as it
  ran on them, the path the index contraction of suites.snake_identity
  replaced;
- boxtimes_conjugation is the literal φ⁻¹(R⊗I + I⊗S)φ that the index
  bookkeeping of spaces.boxtimes_degree and of its pairing-row sum
  replaced;
- dense_reduce_vector subtracts each basis row over the whole ambient
  space, the loop that the pivot-driven Subspace.reduce_vector replaced;
- dense_on_word enumerates every middle-index tuple into a dense image,
  and dense_on_vector, dense_coassociativity and dense_counit_law are the
  frt loops that walked those dense images before the sparse ones;
- dense_frt_relation_generators is the enumeration of the FRT relation
  vectors as frt built them before its sparse rows: one dense vector of
  (dV·dW)^2 entries per label, filled by probing every entry of R and S;
- dense_add, dense_sub, dense_neg, dense_mul, dense_apply,
  dense_transpose, dense_kronecker and dense_is_zero are the operations
  of the dense Matrix that sparse rows replaced, on tuples of dense rows
  (``Matrix.cells``).  matrix_kronecker applies dense_kronecker to Matrix
  objects, and matrix_mul multiplies Matrix objects over their nonzeros;
  they replace the Kronecker product and the product that the library
  dropped when no check used them;
- full_space and complement_words were public library names that only
  tests called;
- check_morphism, normal_form and unit_K were public library names that
  only tests called too.  check_morphism checks l^{⊗n}·R_n = S_n·l^{⊗n}
  on dense cells with dense_kronecker, dense_mul and dense_sub, so it is
  independent of the sparse Matrix arithmetic that it used before.
  normal_form reads the coordinates of an element on the normal words
  through the library's integer word rules (PresentedAlgebra._word_nf and
  algebras._combine), so the tests of the normal-word recursion still run
  the library's code.  unit_K() was the unit object, which the tests
  now write as EquippedSpace(1, {}).
"""

import json
from fractions import Fraction
from itertools import product

from eqspace import frt, spaces
from eqspace.algebras import _combine, apply_U
from eqspace.fileio import SpaceFormatError, _int_field, _power, parse_rational
from eqspace.coalgebra import counit_on_word
from eqspace.frt import gen_flat, gen_split
from eqspace.linalg import Subspace, _scaled, column_space
from eqspace.matrix import Matrix, _as_row
from eqspace.report import VerificationReport
from eqspace.spaces import EquippedSpace
from eqspace.tensors import decode_index, phi_table, tau23_table


def full_space(n):
    """The whole of k^n as a Subspace."""
    return Subspace(n, Matrix.identity(n))


def complement_words(A, n):
    """Word indices spanning the canonical complement of A's ideal (B_n)."""
    return list(A._degree(n).words)


def normal_form(A, n, coords):
    """Coordinates of the degree-n element coords on A's normal words.

    coords is a sequence of d^n coordinates or a dict of nonzeros, checked
    by the library's scalar boundary.  Linear in coords and zero exactly on
    the ideal component; a coordinate is a Fraction only where a
    denominator arises.
    """
    scale, row = _scaled(_as_row(coords, A.gen_dim**n))
    m, nf = _combine((c, A._word_nf(n, w), 1, 0) for w, c in row.items())
    m *= scale
    return tuple(
        Fraction(e, m) if (e := nf.get(w, 0)) and m > 1 else e for w in A._degree(n).words
    )


def check_morphism(l, V, W):
    """Check l^{⊗n}·R_n = S_n·l^{⊗n} for every supported degree n, on dense cells.

    The witness is the first column of the difference with a nonzero entry.
    """
    if l.rows != W.dim or l.cols != V.dim:
        raise ValueError(f"map must be {W.dim}x{V.dim}, got {l.rows}x{l.cols}")
    for n in sorted(set(V.support) | set(W.support)):
        ln = [[1]]
        for k in range(n):
            ln = dense_kronecker(ln, l.cells, V.dim**k, V.dim)
        size_v, size_w = V.dim**n, W.dim**n
        lhs = dense_mul(ln, V.structure_at(n).cells, size_v, size_v)
        rhs = dense_mul(W.structure_at(n).cells, ln, size_w, size_v)
        diff = dense_sub(lhs, rhs)
        col = next((c for c in range(size_v) if any(r[c] != 0 for r in diff)), None)
        if col is not None:
            witness = {"degree": n, "column": col, "difference": [r[col] for r in diff]}
            return VerificationReport("morphism-intertwines", False, witness=witness)
    return VerificationReport("morphism-intertwines", True)


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
    rows = matrix_kronecker(matrix_kronecker(left, rel.basis), right)
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
    comp_a = ideal_component(A, n)
    if comp_a.dim:
        rows.extend(matrix_kronecker(comp_a.basis, Matrix.identity(dB**n)).cells)
    comp_b = ideal_component(B, n)
    if comp_b.dim:
        rows.extend(matrix_kronecker(Matrix.identity(dA**n), comp_b.basis).cells)
    return Subspace.from_rows((dA * dB) ** n, [pull_row(row, table) for row in rows])


def push_row(row, table):
    """Coordinates of P·x for the row form of x (out[table[i]] = row[i])."""
    out = [0] * len(table)
    for i, x in enumerate(row):
        if x != 0:
            out[table[i]] = x
    return out


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


def _load_reference(path):
    """The JSON value of the file at path, decoded whole."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SpaceFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpaceFormatError("file must hold a JSON object")
    return data


def _reference_rows(rows, width, what):
    """Sparse rows of a decoded list of rows of width rational strings each."""
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise SpaceFormatError(f"{what} must have {width} entries")
        values = [parse_rational(text) for text in row]
        out.append({j: x for j, x in enumerate(values) if x})
    return out


def space_from_dict(data):
    """The space a decoded space file describes, checked as the file format asks."""
    dim = _int_field(data, "dim", 1)
    entries = data.get("structure", [])
    if not isinstance(entries, list):
        raise SpaceFormatError("'structure' must be a list")
    structure = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpaceFormatError("structure entries must be objects")
        degree = _int_field(entry, "degree", 1)
        if degree in structure:
            raise SpaceFormatError(f"duplicate degree {degree}")
        rows = entry.get("matrix")
        if not isinstance(rows, list) or _power(dim, degree, len(rows)) != len(rows):
            raise SpaceFormatError(f"matrix must be a list of {dim}^{degree} rows")
        size = len(rows)
        mat = structure[degree] = Matrix._trusted(_reference_rows(rows, size, "matrix rows"), size)
        if degree == 1 and not mat.is_zero():
            raise SpaceFormatError("degree-1 structure must be the zero matrix")
    return EquippedSpace(dim, structure)


def read_space_reference(path):
    return space_from_dict(_load_reference(path))


def read_relations_reference(path):
    """dim, degree and spanned subspace of a relation-basis file, decoded whole."""
    data = _load_reference(path)
    dim = _int_field(data, "dim", 1)
    degree = _int_field(data, "degree", 2, default=2)
    basis = data.get("basis")
    if not isinstance(basis, list):
        raise SpaceFormatError("'basis' must be a list of vectors")
    if basis and not (
        isinstance(basis[0], list) and _power(dim, degree, len(basis[0])) == len(basis[0])
    ):
        raise SpaceFormatError(f"basis vectors must have {dim}^{degree} entries")
    ambient = dim**degree
    rows = _reference_rows(basis, ambient, "basis vectors")
    return dim, degree, Subspace.from_rows(ambient, rows)


def phi_table_reference(dV, dW, n):
    """Index table of φ, each source index decoded into its n pair digits."""
    size = (dV * dW) ** n
    wn = dW**n
    table = [0] * size
    for src in range(size):
        a_code = 0
        b_code = 0
        for g in decode_index(src, dV * dW, n):
            a, b = divmod(g, dW)
            a_code = a_code * dV + a
            b_code = b_code * dW + b
        table[src] = a_code * wn + b_code
    return table


def ev_row(d):
    """1×d² pairing row on V*⊗V: entry 1 at each flat index (j, j)."""
    return Matrix([[int(divmod(g, d)[0] == divmod(g, d)[1]) for g in range(d * d)]])


def coev_column(d):
    """d²×1 coevaluation column on V⊗V*: entry 1 at each flat index (i, i)."""
    return Matrix([[int(divmod(g, d)[0] == divmod(g, d)[1])] for g in range(d * d)])


def ev_reference(V):
    D = spaces.dagger(V)
    rep = check_morphism(ev_row(V.dim), spaces.boxtimes(D, V), EquippedSpace(1, {}))
    return VerificationReport("ev-morphism", rep.passed, rep.witness, rep.dimensions)


def coev_reference(V):
    D = spaces.dagger(V)
    rep = check_morphism(coev_column(V.dim), EquippedSpace(1, {}), spaces.boxtimes(V, D))
    return VerificationReport("coev-morphism", rep.passed, rep.witness, rep.dimensions)


def snake_composites(ev, coev, d):
    """(ev⊗I)(I⊗coev) and (I⊗ev)(coev⊗I) as d dense rows each, by Kronecker products.

    ev is a 1×d² Matrix and coev a d²×1 Matrix.
    """
    ident = Matrix.identity(d)
    on_dual = matrix_mul(matrix_kronecker(ev, ident), matrix_kronecker(ident, coev))
    on_primal = matrix_mul(matrix_kronecker(ident, ev), matrix_kronecker(coev, ident))
    return [list(r) for r in on_dual.cells], [list(r) for r in on_primal.cells]


def snake_reference(V):
    """The snake-identity check as it ran on Kronecker products of ev_row and coev_column."""
    d = V.dim
    on_dual, on_primal = snake_composites(ev_row(d), coev_column(d), d)
    ident = [list(r) for r in Matrix.identity(d).cells]
    if on_dual != ident or on_primal != ident:
        witness = {"on_dual": on_dual, "on_primal": on_primal}
        return VerificationReport("snake-identity", False, witness=witness)
    return VerificationReport("snake-identity", True)


def boxtimes_conjugation(R, S, dV, dW, n):
    """φ⁻¹(R⊗I + I⊗S)φ by Kronecker products and the permutation matrix of φ."""
    phi = phi_iso(dV, dW, n)
    left = matrix_kronecker(R, Matrix.identity(dW**n)).cells
    right = matrix_kronecker(Matrix.identity(dV**n), S).cells
    total = Matrix(dense_add(left, right), cols=phi.cols)
    return matrix_mul(phi.transpose(), total, phi)


def dense_reduce_vector(space, vec):
    """Residue of vec modulo a Subspace, one dense row subtraction per pivot."""
    if len(vec) != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    res = list(vec)
    for row, p in zip(space.basis.cells, space.pivot_columns()):
        c = res[p]
        if c != 0:
            res = [x - c * y for x, y in zip(res, row)]
    return tuple(res)


def dense_on_word(dV, dW, dU, word):
    """Comultiplication image of a word of t-generators, as a dense tuple."""
    left_size, right_size = dU * dV, dW * dU
    p = len(word)
    letters = [gen_split(g, dV) for g in word]
    right_total = right_size**p
    coords = [0] * (left_size**p * right_total)
    for ks in product(range(dU), repeat=p):
        lcode = 0
        rcode = 0
        for (i, j), k in zip(letters, ks):
            lcode = lcode * left_size + (k * dV + i)
            rcode = rcode * right_size + (j * dU + k)
        coords[lcode * right_total + rcode] += 1
    return tuple(coords)


def dense_on_vector(dV, dW, dU, coords, degree):
    """Comultiplication image of a degree-p element, summed over dense word images."""
    g_count = dW * dV
    acc = [0] * ((dU * dV) ** degree * (dW * dU) ** degree)
    for code, c in enumerate(coords):
        if c == 0:
            continue
        word = []
        t = code
        for _ in range(degree):
            t, g = divmod(t, g_count)
            word.append(g)
        word.reverse()
        for idx, x in enumerate(dense_on_word(dV, dW, dU, word)):
            if x != 0:
                acc[idx] += c * x
    return tuple(acc)


def dense_frt_relation_generators(V, W):
    """Dense relation vectors labelled by (i, j, n, m), in lexicographic order."""
    frt._require_quadratic(V, W)
    dV, dW = V.dim, W.dim
    R = V.structure_at(2)
    S = W.structure_at(2)
    g_count = dW * dV
    out = []
    for i, j, n, m in product(range(dV), range(dV), range(dW), range(dW)):
        vec = [0] * (g_count * g_count)
        col = i * dV + j
        for k, l in product(range(dV), repeat=2):
            c = R[k * dV + l, col]
            if c != 0:
                vec[gen_flat(k, n, dV) * g_count + gen_flat(l, m, dV)] += c
        row = n * dW + m
        for k, l in product(range(dW), repeat=2):
            c = S[row, k * dW + l]
            if c != 0:
                vec[gen_flat(i, k, dV) * g_count + gen_flat(j, l, dV)] -= c
        out.append(((i, j, n, m), vec))
    return out


def bilinear_form_frt_span(E, u):
    """frt_relations(V_E, V_E) for V_E = bilinear_form_space(E, u), from E and u alone.

    R = e·uᵀ turns R·T⊗T = T⊗T·R into the relations u_ij·X^{nm} − E_nm·Y_ij
    over all (i, j, n, m), with X^{nm} = Σ E_kl t_k^n t_l^m and
    Y_ij = Σ u_kl t_i^k t_j^l.  The generator t_i^j sits at j·d + i and the
    word t_a t_b at a·d² + b.
    """
    d = len(E)
    g = d * d

    def word(i, j, k, l):
        """Code of the word t_i^j t_k^l."""
        return (j * d + i) * g + l * d + k

    rows = []
    for i, j, n, m in product(range(d), repeat=4):
        vec = [0] * (g * g)
        for k, l in product(range(d), repeat=2):
            vec[word(k, n, l, m)] += u[i][j] * E[k][l]
            vec[word(i, k, j, l)] -= E[n][m] * u[k][l]
        rows.append(vec)
    return Subspace.from_rows(g * g, rows)


def dense_coassociativity(dV, dW, dX, dY):
    """coalgebra.coassociativity_check over dense word images."""
    s2, s3 = dY * dX, dW * dY
    total = dX * dV * s2 * s3
    for g in range(dW * dV):
        route1 = [0] * total
        for idx, c in enumerate(dense_on_word(dV, dW, dY, [g])):
            if c == 0:
                continue
            lcode, rcode = divmod(idx, dW * dY)
            for idx2, c2 in enumerate(dense_on_word(dV, dY, dX, [lcode])):
                if c2 != 0:
                    a, b = divmod(idx2, dY * dX)
                    route1[(a * s2 + b) * s3 + rcode] += c * c2
        route2 = [0] * total
        for idx, c in enumerate(dense_on_word(dV, dW, dX, [g])):
            if c == 0:
                continue
            lcode, rcode = divmod(idx, dW * dX)
            for idx2, c2 in enumerate(dense_on_word(dX, dW, dY, [rcode])):
                if c2 != 0:
                    b, e = divmod(idx2, dW * dY)
                    route2[(lcode * s2 + b) * s3 + e] += c * c2
        if route1 != route2:
            bad = next(idx for idx in range(total) if route1[idx] != route2[idx])
            return VerificationReport(
                "comultiplication-coassociative",
                False,
                witness={"generator": g, "index": bad},
            )
    return VerificationReport("comultiplication-coassociative", True)


def dense_counit_law(dV, dW):
    """coalgebra.counit_law_check over dense word images."""
    g_count = dW * dV
    for g in range(g_count):
        left = [0] * g_count
        for idx, c in enumerate(dense_on_word(dV, dW, dV, [g])):
            if c == 0:
                continue
            lcode, rcode = divmod(idx, dW * dV)
            if counit_on_word([lcode], dV):
                left[rcode] += c
        right = [0] * g_count
        for idx, c in enumerate(dense_on_word(dV, dW, dW, [g])):
            if c == 0:
                continue
            lcode, rcode = divmod(idx, dW * dW)
            if counit_on_word([rcode], dW):
                right[lcode] += c
        unit = [int(h == g) for h in range(g_count)]
        if left != unit or right != unit:
            return VerificationReport(
                "counit-law",
                False,
                witness={"generator": g, "left": left, "right": right},
            )
    return VerificationReport("counit-law", True)


def ideal_component(A, n):
    """Degree-n ideal of a PresentedAlgebra: the rows e_w - NF(w), w not normal."""
    size = A.gen_dim**n
    words = complement_words(A, n)
    normal = set(words)
    rows = []
    for w in range(size):
        if w in normal:
            continue
        nf = normal_form(A, n, {w: 1})
        row = [int(i == w) for i in range(size)]
        for t, c in zip(words, nf):
            row[t] -= c
        rows.append(row)
    return Subspace.from_rows(size, rows)


class TensorSum:
    """The span left⊗k^b + k^a⊗right inside k^(a·b), left factor major.

    Membership rests on (k^a/X)⊗(k^b/Y) = (k^a⊗k^b)/(X⊗k^b + k^a⊗Y): read a
    vector as a blocks of length b, reduce each block modulo right, and the
    vector lies in the span exactly when every column of the reduced blocks
    lies in left.
    """

    def __init__(self, left, right):
        self.left, self.right = left, right

    @property
    def dim(self):
        r, s = self.left.dim, self.right.dim
        return r * self.right.ambient_dim + self.left.ambient_dim * s - r * s

    def first_outside(self, vectors):
        """Index of the first vector not in the span, or None; lazy."""
        a, b = self.left.ambient_dim, self.right.ambient_dim
        for i, vec in enumerate(vectors):
            if len(vec) != a * b:
                raise ValueError("ambient dimension mismatch")
            blocks = [
                dense_reduce_vector(self.right, vec[k * b : (k + 1) * b]) for k in range(a)
            ]
            if self.left.first_outside(zip(*blocks)) is not None:
                return i
        return None


def _containment_report(name, bad, rows, dims, key="relation", **witness):
    """Passed when bad is None, else failed with the dense row rows[bad] under key."""
    if bad is None:
        return VerificationReport(name, True, dimensions=dims)
    witness[key] = list(rows[bad])
    return VerificationReport(name, False, witness=witness, dimensions=dims)


def tensor_sum_comult_check(V, W, U):
    """coalgebra.check_comult_well_defined on TensorSum and dense Δ images."""
    target = TensorSum(frt.frt_relations(V, U), frt.frt_relations(U, W))
    source = frt.frt_relations(V, W)
    dims = {"source": source.dim, "target_ideal": target.dim}
    rows = source.basis.cells
    images = (dense_on_vector(V.dim, W.dim, U.dim, row, 2) for row in rows)
    bad = target.first_outside(images)
    return _containment_report("comultiplication-well-defined", bad, rows, dims)


def tensor_sum_corep_check(V, W):
    """epi.corep_delta_check on TensorSum and dense images."""
    dV, dW = V.dim, W.dim
    g_count, w_total = dW * dV, dW * dW
    target = TensorSum(frt.frt_relations(V, W), column_space(W.structure_at(2)))
    im_r = column_space(V.structure_at(2))
    dims = {"source": im_r.dim, "target_ideal": target.dim}

    def image(row):
        out = [0] * (g_count**2 * w_total)
        for code, c in enumerate(row):
            i1, i2 = divmod(code, dV)
            for j1, j2 in product(range(dW), repeat=2):
                gcode = gen_flat(i1, j1, dV) * g_count + gen_flat(i2, j2, dV)
                out[gcode * w_total + (j1 * dW + j2)] += c
        return out

    rows = im_r.basis.cells
    bad = target.first_outside(map(image, rows))
    return _containment_report("corepresentation-well-defined", bad, rows, dims)


def tensor_sum_U_epi(V, W, N):
    """epi.check_U_epi on TensorSum of the assembled ideal components."""
    left = apply_U(spaces.boxtimes(V, W))
    A, B = apply_U(V), apply_U(W)
    dims = {}
    for n in range(2, N + 1):
        size = left.gen_dim**n
        dims[f"product_ideal_{n}"] = size - left.graded_dim(n)
        dims[f"circle_ideal_{n}"] = size - A.graded_dim(n) * B.graded_dim(n)
        rel = left.relations.get(n)
        if rel is None:
            continue
        target = TensorSum(ideal_component(A, n), ideal_component(B, n))
        table = phi_table(A.gen_dim, B.gen_dim, n)
        rows = rel.basis.cells
        bad = target.first_outside(push_row(row, table) for row in rows)
        if bad is not None:
            name = "product-ideal-in-circle-ideal"
            return _containment_report(name, bad, rows, dims, "vector", degree=n)
    return VerificationReport("product-ideal-in-circle-ideal", True, dimensions=dims)


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_neg(a):
    return [[-x for x in r] for r in a]


def dense_mul(a, b, inner, cols):
    """a (rows x inner) times b (inner x cols), every cell visited; zero terms add nothing."""
    columns = [[b[k][j] for k in range(inner)] for j in range(cols)]
    return [[sum([x * y for x, y in zip(r, c) if x and y], 0) for c in columns] for r in a]


def dense_apply(a, vec):
    return tuple(sum((x * y for x, y in zip(r, vec)), 0) for r in a)


def dense_transpose(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


def dense_kronecker(a, b, a_cols, b_cols):
    """(a⊗b)[(i,k),(j,l)] = a[i][j]·b[k][l], left factor major; zero factors multiply nothing."""
    return [
        [ra[j] * rb[l] if ra[j] and rb[l] else 0 for j in range(a_cols) for l in range(b_cols)]
        for ra in a
        for rb in b
    ]


def dense_is_zero(a):
    return all(x == 0 for r in a for x in r)


def matrix_mul(*factors):
    """Product of Matrix factors, left to right, over the nonzeros of each row.

    This is the loop of the product that Matrix had.  dense_mul visits
    every cell, which makes the 729×729 conjugations of the φ tests take
    about a minute.
    """
    out = factors[0]
    for b in factors[1:]:
        if out.cols != b.rows:
            raise ValueError(f"shape mismatch: {out.rows}x{out.cols} * {b.rows}x{b.cols}")
        rows = []
        for arow in out.nonzeros:
            acc = {}
            for k, x in arow.items():
                for j, y in b.nonzeros[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            rows.append({j: x for j, x in acc.items() if x})
        out = Matrix._trusted(rows, b.cols)
    return out


def matrix_kronecker(a, b):
    """Kronecker product of two Matrix objects, left factor major, by dense_kronecker."""
    return Matrix(dense_kronecker(a.cells, b.cells, a.cols, b.cols), cols=a.cols * b.cols)
