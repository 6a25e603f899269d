"""Quantum matrix algebra relation spans and their coalgebra maps.

For quadratic structures R on V and S on W, the rectangular quantum
matrix algebra on generators t_i^j (flat index g = j·dV + i, the package
generator convention) is presented by the span of the vectors

    sum_kl R[(k,l),(i,j)] t_k^n t_l^m  -  sum_kl S[(n,m),(k,l)] t_i^k t_j^l

over all (i, j, n, m).  The module builds that span directly, checks it
against the column space of the dagger/boxtimes pipeline, and verifies
the comultiplication and counit maps at the level of relation vectors.
Those images are sparse; ``_first_outside_tensor`` tests them in the
tensor product of two quotient algebras, in integers, by the algebras'
integer normal-form rules.  The epimorphism checks, which only the epi
suite runs, are in ``epi``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import product

from .algebras import PresentedAlgebra, _combine
from .linalg import Subspace, _scaled, column_space
from .matrix import Matrix, Record, Scalar
from .report import VerificationReport
from .spaces import EquippedSpace, boxtimes, dagger
from .tensors import decode_index


def gen_flat(i: int, j: int, dV: int) -> int:
    """Flat index of the generator t_i^j = w^j ⊗ v_i."""
    return j * dV + i


def gen_split(g: int, dV: int) -> tuple[int, int]:
    j, i = divmod(g, dV)
    return i, j


def _require_quadratic(*spaces: EquippedSpace) -> None:
    for V in spaces:
        if not V.is_quadratic():
            raise ValueError(f"operation needs quadratic structures, got support {list(V.support)}")


LabelledRows = list[tuple[tuple[int, int, int, int], dict[int, Scalar]]]


def frt_relation_generators(V: EquippedSpace, W: EquippedSpace) -> LabelledRows:
    """Relation vectors labelled by (i, j, n, m), in lexicographic order.

    A vector is its nonzeros {word code: coefficient}, the word t_a t_b at
    code a·dW·dV + b.
    """
    _require_quadratic(V, W)
    return _generator_rows(V.dim, V.structure_at(2), W.dim, W.structure_at(2))


def _generator_rows(dV: int, R: Matrix, dW: int, S: Matrix) -> LabelledRows:
    """The rows of frt_relation_generators, from column (i, j) of R and row (n, m) of S.

    Each term meets a word at most once; where the two meet they are summed,
    and the word is dropped when they cancel.
    """
    g_count = dW * dV
    r_cols = R.transpose().nonzeros
    out = []
    for i, j, n, m in product(range(dV), range(dV), range(dW), range(dW)):
        row: dict[int, Scalar] = {}
        for kl, c in r_cols[i * dV + j].items():
            k, l = divmod(kl, dV)
            row[gen_flat(k, n, dV) * g_count + gen_flat(l, m, dV)] = c
        for kl, c in S.nonzeros[n * dW + m].items():
            k, l = divmod(kl, dW)
            code = gen_flat(i, k, dV) * g_count + gen_flat(j, l, dV)
            c = row.pop(code, 0) - c
            if c:
                row[code] = c
        out.append(((i, j, n, m), row))
    return out


def frt_relations(V: EquippedSpace, W: EquippedSpace) -> Subspace:
    """Canonical degree-2 relation span of the quantum matrix algebra.

    One suite run asks for a pair up to four times, so the last four spans
    are kept, keyed by the values of the dimensions and degree-2 structures.
    """
    _require_quadratic(V, W)
    return _frt_span(V.dim, V.structure_at(2), W.dim, W.structure_at(2))


@lru_cache(maxsize=4)
def _frt_span(dV: int, R: Matrix, dW: int, S: Matrix) -> Subspace:
    return Subspace.from_rows((dW * dV) ** 2, [row for _, row in _generator_rows(dV, R, dW, S)])


def _containment_report(
    name: str, bad: int | None, basis: Matrix, dims: dict[str, int], key: str, **witness: int
) -> VerificationReport:
    """Passed when bad is None, else failed with row bad of basis under key.

    Only that row is made dense, with its zeros, as the report spells it.
    """
    if bad is None:
        return VerificationReport(name, True, dimensions=dims)
    row = basis.nonzeros[bad]
    witness[key] = [row.get(j, 0) for j in range(basis.cols)]
    return VerificationReport(name, False, witness=witness, dimensions=dims)


def verify_hom_equals_frt(V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Compare the dagger/boxtimes image with the explicit relation span.

    The image of hom(W, V)'s degree-2 structure, frt_relations_conic at
    degree 2, and the enumerated relation span must agree exactly; this is
    the identification that makes the internal hom's coordinate ring a
    quantum matrix algebra.
    """
    _require_quadratic(V, W)
    pipeline = frt_relations_conic(V, W, 2)
    explicit = frt_relations(V, W)
    dims = {"pipeline": pipeline.dim, "explicit": explicit.dim}
    if pipeline == explicit:
        return VerificationReport("hom-equals-frt", True, dimensions=dims)
    outside, bad = pipeline, explicit.first_outside(pipeline.basis.nonzeros)
    if bad is None:
        outside, bad = explicit, pipeline.first_outside(explicit.basis.nonzeros)
    return _containment_report("hom-equals-frt", bad, outside.basis, dims, "vector")


class Comultiplication(Record):
    """Symbolic map t_i^j -> sum_k t'_i^k ⊗ t''_k^j, extended to words.

    Left-leg generators t'_i^k live on dU·dV letters (flat k·dV + i),
    right-leg generators t''_k^j on dW·dU letters (flat j·dU + k).  The
    image of a degree-p element has coordinates indexed by pairs of words,
    left word major: the pair (l, r) of word codes sits at
    l·right_size^p + r.
    """

    __slots__ = ("dV", "dW", "dU")

    def __init__(self, dV: int, dW: int, dU: int):
        self._set(dV, dW, dU)

    @property
    def left_size(self) -> int:
        return self.dU * self.dV

    @property
    def right_size(self) -> int:
        return self.dW * self.dU

    def _image(self, word: Sequence[int]) -> list[int]:
        """The dU^p distinct indices where the image of word is 1; it is 0 elsewhere.

        An index spells every letter's (i, j) and middle index k, so the
        images of distinct words are disjoint as well.
        """
        lcodes, rcodes = [0], [0]
        for g in word:
            i, j = gen_split(g, self.dV)
            ks = range(self.dU)
            lcodes = [l * self.left_size + k * self.dV + i for l in lcodes for k in ks]
            rcodes = [r * self.right_size + j * self.dU + k for r in rcodes for k in ks]
        right_total = self.right_size ** len(word)
        return [l * right_total + r for l, r in zip(lcodes, rcodes)]

    def on_vector(self, coords: dict[int, Scalar], degree: int) -> dict[int, Scalar]:
        """Image of a degree-p element {word code: c} as {index: c}, nonzeros only."""
        g_count = self.dW * self.dV
        out: dict[int, Scalar] = {}
        for code, c in coords.items():
            for idx in self._image(decode_index(code, g_count, degree)):
                out[idx] = c  # images of distinct words are disjoint
        return out


def counit_on_word(word: Sequence[int], dV: int) -> int:
    """Multiplicative counit: product of delta(i, j) over the letters."""
    for g in word:
        i, j = gen_split(g, dV)
        if i != j:
            return 0
    return 1


def coassociativity_check(dV: int, dW: int, dX: int, dY: int) -> VerificationReport:
    """Both bracketings of the double comultiplication agree symbolically.

    Route one splits through the dY middle and then refines the left leg
    through dX; route two splits through dX and refines the right leg
    through dY.  Both land in triple words over the alphabets
    (dX·dV, dY·dX, dW·dY) and must match coefficient by coefficient, as
    counts of the indices each reaches; the witness is the least that differs.
    """
    s2, s3 = dY * dX, dW * dY
    through_y = Comultiplication(dV, dW, dY)
    refine_left = Comultiplication(dV, dY, dX)
    through_x = Comultiplication(dV, dW, dX)
    refine_right = Comultiplication(dX, dW, dY)
    for g in range(dW * dV):
        route1: Counter[int] = Counter()
        for idx in through_y._image([g]):
            lcode, rcode = divmod(idx, through_y.right_size)
            route1.update(idx2 * s3 + rcode for idx2 in refine_left._image([lcode]))
        route2: Counter[int] = Counter()
        for idx in through_x._image([g]):
            lcode, rcode = divmod(idx, through_x.right_size)
            route2.update(lcode * s2 * s3 + idx2 for idx2 in refine_right._image([rcode]))
        if route1 != route2:
            bad = min(i for i in route1.keys() | route2.keys() if route1[i] != route2[i])
            witness = {"generator": g, "index": bad}
            return VerificationReport("comultiplication-coassociative", False, witness=witness)
    return VerificationReport("comultiplication-coassociative", True)


def counit_law_check(dV: int, dW: int) -> VerificationReport:
    """Counit composed with either leg of the comultiplication is the identity."""
    g_count = dW * dV
    delta_left = Comultiplication(dV, dW, dV)
    delta_right = Comultiplication(dV, dW, dW)
    for g in range(g_count):
        left = [0] * g_count
        for idx in delta_left._image([g]):
            lcode, rcode = divmod(idx, delta_left.right_size)
            if counit_on_word([lcode], dV):
                left[rcode] += 1
        right = [0] * g_count
        for idx in delta_right._image([g]):
            lcode, rcode = divmod(idx, delta_right.right_size)
            if counit_on_word([rcode], dW):
                right[lcode] += 1
        unit = [int(h == g) for h in range(g_count)]
        if left != unit or right != unit:
            witness = {"generator": g, "left": left, "right": right}
            return VerificationReport("counit-law", False, witness=witness)
    return VerificationReport("counit-law", True)


def _first_outside_tensor(
    A: PresentedAlgebra, B: PresentedAlgebra, n: int, vectors: Iterable[Mapping[int, Scalar]]
) -> int | None:
    """Index of the first vector that is not zero in A_n⊗B_n, or None.

    A vector is sparse, {u·d_B^n + v: coefficient} for degree-n words u of
    A and v of B.  By (F/X)⊗(F/Y) = (F⊗F)/(X⊗F + F⊗Y) (Polishchuk-Positselski,
    Quadratic Algebras, ch. 3) it lies in I_A(n)⊗full + full⊗I_B(n) exactly
    when NF_A⊗NF_B kills it; NF_B is applied to the right leg, then NF_A to
    the left.  The vectors are consumed lazily, as by Subspace.first_outside.

    The arithmetic is in integers: the vector's denominators are cleared,
    and each leg combines the memoized integer rules of its words over
    their lcm.  Whether the image is zero does not depend on the scale.
    """
    size = B.gen_dim**n
    for i, vec in enumerate(vectors):
        _, right = _combine(
            (c, B._word_nf(n, v), 1, u * size)
            for code, c in _scaled(vec)[1].items()
            for u, v in [divmod(code, size)]
        )
        _, both = _combine(
            (c, A._word_nf(n, u), size, t)
            for code, c in right.items()
            for u, t in [divmod(code, size)]
        )
        if both:
            return i
    return None


def check_comult_well_defined(
    V: EquippedSpace, W: EquippedSpace, U_mid: EquippedSpace
) -> VerificationReport:
    """Relations of A(R:S) land in the relation ideal of A(R:T)⊗A(T:S).

    Each basis relation is pushed through the comultiplication into
    bidegree (2,2) and must vanish in A(R:T)_2⊗A(T:S)_2.
    """
    _require_quadratic(V, W, U_mid)
    delta = Comultiplication(V.dim, W.dim, U_mid.dim)
    left = PresentedAlgebra(delta.left_size, {2: frt_relations(V, U_mid)})
    right = PresentedAlgebra(delta.right_size, {2: frt_relations(U_mid, W)})
    source = frt_relations(V, W)
    dims = {"source": source.dim, "target_ideal": _tensor_ideal_dim(left, right)}
    images = (delta.on_vector(row, 2) for row in source.basis.nonzeros)
    bad = _first_outside_tensor(left, right, 2, images)
    return _containment_report("comultiplication-well-defined", bad, source.basis, dims, "relation")


def _tensor_ideal_dim(A: PresentedAlgebra, B: PresentedAlgebra) -> int:
    """Dimension of I_A(2)⊗full + full⊗I_B(2), the kernel of T_2⊗T_2 -> A_2⊗B_2."""
    return (A.gen_dim * B.gen_dim) ** 2 - A.graded_dim(2) * B.graded_dim(2)


def counit_check(V: EquippedSpace) -> VerificationReport:
    """Counit t_i^j -> delta(i,j) kills every generating relation vector.

    On the generator (i, j, n, m) of (V, V) the counit is R[(n,m),(i,j)]
    from the R term less the same entry from the S term, 0 for every R, so
    the check cannot fail on any input.  What it checks is the row builder,
    _generator_rows: a coefficient at a wrong word, as from a transposed S,
    shows here.
    """
    _require_quadratic(V)
    dV = V.dim
    g_count = dV * dV
    for label, row in frt_relation_generators(V, V):
        total = sum(c * counit_on_word(divmod(code, g_count), dV) for code, c in row.items())
        if total != 0:
            witness = {"generator": list(label), "value": total}
            return VerificationReport("counit-kills-relations", False, witness=witness)
    return VerificationReport("counit-kills-relations", True)


def frt_relations_conic(V: EquippedSpace, W: EquippedSpace, m: int) -> Subspace:
    """Degree-m relation span for single-degree structures (support ⊆ {m})."""
    if m < 2:
        raise ValueError("degree must be at least 2")
    for X in (V, W):
        if not set(X.support) <= {m}:
            raise ValueError(
                f"conic relations need support within {{{m}}}, got {list(X.support)}"
            )
    return column_space(boxtimes(dagger(W), V).structure_at(m))
