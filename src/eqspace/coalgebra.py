"""The coalgebra maps of the quantum matrix algebras, checked on relation vectors.

The comultiplication t_i^j -> sum_k t'_i^k ⊗ t''_k^j and the counit
t_i^j -> delta(i, j) of the frt module's algebras: coassociativity and
the counit law symbolically, on generators, and the comultiplication and
counit on the relation spans.  The bialgebra suite runs them, and the epi
suite runs the comultiplication out of the unit as its corepresentation
check, so those two suites load this module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .algebras import PresentedAlgebra
from .frt import _containment_report, _first_outside_tensor, _require_quadratic
from .frt import _tensor_ideal_dim, frt_relation_generators, frt_relations, gen_split
from .matrix import Record, Scalar
from .report import VerificationReport
from .spaces import EquippedSpace
from .tensors import decode_index


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
    dims = {"source": source.dim, "target_ideal": _tensor_ideal_dim(left, right, 2)}
    images = (delta.on_vector(row, 2) for row in source.basis.nonzeros)
    bad = _first_outside_tensor(left, right, 2, images)
    return _containment_report("comultiplication-well-defined", bad, source.basis, dims, "relation")


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
