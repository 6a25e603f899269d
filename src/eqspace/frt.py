"""Quantum matrix algebra relation spans and their coalgebra maps.

For quadratic structures R on V and S on W, the rectangular quantum
matrix algebra on generators t_i^j (flat index g = j·dV + i, the package
generator convention) is presented by the span of the vectors

    sum_kl R[(k,l),(i,j)] t_k^n t_l^m  -  sum_kl S[(n,m),(k,l)] t_i^k t_j^l

over all (i, j, n, m).  The module builds that span directly, checks it
against the column space of the dagger/boxtimes pipeline, and verifies
the comultiplication, counit and corepresentation maps at the level of
relation vectors, plus the containment of Manin-style hom relations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from typing import NamedTuple, Sequence

from .algebras import PresentedAlgebra, apply_U
from .linalg import Matrix, Scalar, Subspace, TensorSum, column_space, kernel
from .report import VerificationReport
from .spaces import EquippedSpace, boxtimes, dagger, hom_space
from .tensors import push_row, tau23_table


def gen_flat(i: int, j: int, dV: int) -> int:
    """Flat index of the generator t_i^j = w^j ⊗ v_i."""
    return j * dV + i


def gen_split(g: int, dV: int) -> tuple[int, int]:
    j, i = divmod(g, dV)
    return i, j


def _require_quadratic(*spaces: EquippedSpace) -> None:
    for V in spaces:
        if not V.is_quadratic():
            raise ValueError(
                f"operation needs quadratic structures, got support {list(V.support)}"
            )


def frt_relation_generators(
    V: EquippedSpace, W: EquippedSpace
) -> list[tuple[tuple[int, int, int, int], list[Scalar]]]:
    """Raw relation vectors labelled by (i, j, n, m), in lexicographic order."""
    _require_quadratic(V, W)
    dV, dW = V.dim, W.dim
    R = V.structure_at(2)
    S = W.structure_at(2)
    g_count = dW * dV
    out = []
    for i, j, n, m in product(range(dV), range(dV), range(dW), range(dW)):
        vec: list[Scalar] = [0] * (g_count * g_count)
        col = i * dV + j
        for k, l in product(range(dV), repeat=2):
            c = R.cells[k * dV + l][col]
            if c != 0:
                vec[gen_flat(k, n, dV) * g_count + gen_flat(l, m, dV)] += c
        row = n * dW + m
        for k, l in product(range(dW), repeat=2):
            c = S.cells[row][k * dW + l]
            if c != 0:
                vec[gen_flat(i, k, dV) * g_count + gen_flat(j, l, dV)] -= c
        out.append(((i, j, n, m), vec))
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
    gens = frt_relation_generators(EquippedSpace(dV, {2: R}), EquippedSpace(dW, {2: S}))
    return Subspace.from_rows((dW * dV) ** 2, [vec for _, vec in gens])


def verify_hom_equals_frt(V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Compare the dagger/boxtimes image with the explicit relation span.

    The image of the degree-2 structure of hom(W, V) and the enumerated
    relation span must agree exactly; this is the identification that
    makes the internal hom's coordinate ring a quantum matrix algebra.
    """
    _require_quadratic(V, W)
    pipeline = column_space(hom_space(W, V).structure_at(2))
    explicit = frt_relations(V, W)
    dims = {"pipeline": pipeline.dim, "explicit": explicit.dim}
    if pipeline == explicit:
        return VerificationReport("hom-equals-frt", True, dimensions=dims)
    bad = explicit.first_outside(pipeline.basis.cells)
    if bad is None:
        mismatch = explicit.basis.cells[pipeline.first_outside(explicit.basis.cells)]
    else:
        mismatch = pipeline.basis.cells[bad]
    return VerificationReport(
        "hom-equals-frt", False, witness={"vector": list(mismatch)}, dimensions=dims
    )


class Comultiplication(NamedTuple):
    """Symbolic map t_i^j -> sum_k t'_i^k ⊗ t''_k^j, extended to words.

    Left-leg generators t'_i^k live on dU·dV letters (flat k·dV + i),
    right-leg generators t''_k^j on dW·dU letters (flat j·dU + k).  The
    image of a degree-p element has coordinates indexed by pairs of words,
    left word major: the pair (l, r) of word codes sits at
    l·right_size^p + r.
    """

    dV: int
    dW: int
    dU: int

    @property
    def left_size(self) -> int:
        return self.dU * self.dV

    @property
    def right_size(self) -> int:
        return self.dW * self.dU

    def _image(self, word: Sequence[int]) -> list[int]:
        """The dU^p distinct indices where on_word(word) is 1; it is 0 elsewhere.

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

    def on_word(self, word: Sequence[int]) -> tuple[Scalar, ...]:
        coords: list[Scalar] = [0] * (self.left_size * self.right_size) ** len(word)
        for idx in self._image(word):
            coords[idx] = 1
        return tuple(coords)

    def on_vector(self, coords: Sequence[Scalar], degree: int) -> tuple[Scalar, ...]:
        g_count = self.dW * self.dV
        acc: list[Scalar] = [0] * (self.left_size * self.right_size) ** degree
        for code in compress(range(len(coords)), coords):
            c = coords[code]
            word = []
            t = code
            for _ in range(degree):
                t, g = divmod(t, g_count)
                word.append(g)
            word.reverse()
            for idx in self._image(word):
                acc[idx] = c  # images of distinct words are disjoint
        return tuple(acc)


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
    (dX·dV, dY·dX, dW·dY) and must match coefficient by coefficient.
    """
    s2, s3 = dY * dX, dW * dY
    total = dX * dV * s2 * s3
    through_y = Comultiplication(dV, dW, dY)
    refine_left = Comultiplication(dV, dY, dX)
    through_x = Comultiplication(dV, dW, dX)
    refine_right = Comultiplication(dX, dW, dY)
    for g in range(dW * dV):
        route1: list[Scalar] = [0] * total
        for idx in through_y._image([g]):
            lcode, rcode = divmod(idx, through_y.right_size)
            for idx2 in refine_left._image([lcode]):
                a, b = divmod(idx2, refine_left.right_size)
                route1[(a * s2 + b) * s3 + rcode] += 1
        route2: list[Scalar] = [0] * total
        for idx in through_x._image([g]):
            lcode, rcode = divmod(idx, through_x.right_size)
            for idx2 in refine_right._image([rcode]):
                b, e = divmod(idx2, refine_right.right_size)
                route2[(lcode * s2 + b) * s3 + e] += 1
        if route1 != route2:
            bad = next(idx for idx in range(total) if route1[idx] != route2[idx])
            return VerificationReport(
                "comultiplication-coassociative",
                False,
                witness={"generator": g, "index": bad},
            )
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
            return VerificationReport(
                "counit-law",
                False,
                witness={"generator": g, "left": left, "right": right},
            )
    return VerificationReport("counit-law", True)


def check_comult_well_defined(
    V: EquippedSpace, W: EquippedSpace, U_mid: EquippedSpace
) -> VerificationReport:
    """Relations of A(R:S) land in the relation ideal of A(R:T)⊗A(T:S).

    Each basis relation is pushed through the comultiplication into
    bidegree (2,2) and must lie in rel(R,T)⊗(full) + (full)⊗rel(T,S).
    """
    _require_quadratic(V, W, U_mid)
    delta = Comultiplication(V.dim, W.dim, U_mid.dim)
    target = TensorSum(frt_relations(V, U_mid), frt_relations(U_mid, W))
    source = frt_relations(V, W)
    dims = {"source": source.dim, "target_ideal": target.dim}
    bad = target.first_outside(delta.on_vector(row, 2) for row in source.basis.cells)
    if bad is not None:
        return VerificationReport(
            "comultiplication-well-defined",
            False,
            witness={"relation": list(source.basis.cells[bad])},
            dimensions=dims,
        )
    return VerificationReport("comultiplication-well-defined", True, dimensions=dims)


def counit_check(V: EquippedSpace) -> VerificationReport:
    """Counit t_i^j -> delta(i,j) kills every generating relation vector."""
    _require_quadratic(V)
    dV = V.dim
    g_count = dV * dV
    for label, vec in frt_relation_generators(V, V):
        total = 0
        for code, c in enumerate(vec):
            if c == 0:
                continue
            g1, g2 = divmod(code, g_count)
            total += c * counit_on_word([g1, g2], dV)
        if total != 0:
            return VerificationReport(
                "counit-kills-relations",
                False,
                witness={"generator": list(label), "value": total},
            )
    return VerificationReport("counit-kills-relations", True)


def corep_delta_check(V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Well-definedness of v_i -> sum_j t_i^j ⊗ w_j on the relation ideal.

    The squared map sends Im R into rel(R,S)⊗W² + (full)⊗Im S, which is
    what makes the corepresentation map descend to the quotients.
    """
    _require_quadratic(V, W)
    dV, dW = V.dim, W.dim
    g_count = dW * dV
    w_total = dW * dW
    target = TensorSum(frt_relations(V, W), column_space(W.structure_at(2)))
    im_r = column_space(V.structure_at(2))
    dims = {"source": im_r.dim, "target_ideal": target.dim}

    def image(row: Sequence[Scalar]) -> list[Scalar]:
        out: list[Scalar] = [0] * (g_count**2 * w_total)
        for code, c in enumerate(row):
            if c == 0:
                continue
            i1, i2 = divmod(code, dV)
            for j1, j2 in product(range(dW), repeat=2):
                gcode = gen_flat(i1, j1, dV) * g_count + gen_flat(i2, j2, dV)
                out[gcode * w_total + (j1 * dW + j2)] += c
        return out

    bad = target.first_outside(image(row) for row in im_r.basis.cells)
    if bad is not None:
        return VerificationReport(
            "corepresentation-well-defined",
            False,
            witness={"relation": list(im_r.basis.cells[bad])},
            dimensions=dims,
        )
    return VerificationReport("corepresentation-well-defined", True, dimensions=dims)


def manin_hom_relations(A: PresentedAlgebra, B: PresentedAlgebra) -> Subspace:
    """Hom relations of quadratic algebras: middle-swap of ann(R_B) ⊗ R_A.

    B plays the source role, A the target role; the annihilator is the
    kernel of the matrix whose rows span B's degree-2 relations.
    """
    for alg in (A, B):
        if any(m != 2 for m in alg.relations):
            raise ValueError("hom relations need quadratic presentations")
    dV, dW = A.gen_dim, B.gen_dim
    rel_a = A.relations.get(2, Subspace.zero(dV * dV))
    rel_b = B.relations.get(2, Subspace.zero(dW * dW))
    ann = kernel(rel_b.basis)
    table = tau23_table(dW, dV)
    rows = []
    for arow in ann.basis.cells:
        for brow in rel_a.basis.cells:
            rows.append(push_row([x * y for x in arow for y in brow], table))
    return Subspace.from_rows((dW * dV) ** 2, rows)


def check_manin_epi(V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Containment of the hom-algebra relations in the quantum matrix span.

    Equivalent to the generator-identity epimorphism from the hom algebra
    of the underlying quotients onto the quantum matrix algebra.
    """
    _require_quadratic(V, W)
    manin = manin_hom_relations(apply_U(V), apply_U(W))
    frt = frt_relations(V, W)
    dims = {"manin": manin.dim, "frt": frt.dim}
    bad = frt.first_outside(manin.basis.cells)
    if bad is not None:
        return VerificationReport(
            "manin-relations-in-frt",
            False,
            witness={"vector": list(manin.basis.cells[bad])},
            dimensions=dims,
        )
    return VerificationReport("manin-relations-in-frt", True, dimensions=dims)


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

