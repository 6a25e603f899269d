"""Quantum matrix algebra relation spans.

For quadratic structures R on V and S on W, the rectangular quantum
matrix algebra on generators t_i^j (flat index g = j·dV + i, the package
generator convention) is presented by the span of the vectors

    sum_kl R[(k,l),(i,j)] t_k^n t_l^m  -  sum_kl S[(n,m),(k,l)] t_i^k t_j^l

over all (i, j, n, m).  The module builds that span directly and checks
it against the column space of the dagger/boxtimes pipeline.  The
coalgebra maps, checked at the level of relation vectors, are in
``coalgebra``, which the bialgebra and epi suites load, and the
epimorphism checks in ``epi``, which only the epi suite loads.  The
images those checks test are sparse; ``_first_outside_tensor`` tests
them in the tensor product of two quotient algebras, in integers, by the
algebras' integer normal-form rules.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import product

from .algebras import PresentedAlgebra, _combine
from .linalg import Subspace, _scaled, column_space
from .matrix import Matrix, Scalar
from .report import VerificationReport
from .spaces import EquippedSpace, boxtimes, dagger


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


def _tensor_ideal_dim(A: PresentedAlgebra, B: PresentedAlgebra, n: int) -> int:
    """Dimension of I_A(n)⊗full + full⊗I_B(n), the kernel of T_n⊗T_n -> A_n⊗B_n."""
    return (A.gen_dim * B.gen_dim) ** n - A.graded_dim(n) * B.graded_dim(n)


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
