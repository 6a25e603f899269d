"""Linear spaces equipped with graded structure maps.

An equipped space is a pair (V, R) where R is a finitely supported family
of endomorphisms R_n of V^{⊗n}.  The module provides the monoidal product
``boxtimes`` (R⊠S = φ⁻¹(R⊗I + I⊗S)φ per degree), the duality ``dagger``
((V*, -Rᵀ)), the check that a linear map intertwines two structures, the
evaluation and coevaluation arrows of the rigid structure with that check
applied to them, and internal hom spaces.  Structure matrices of products
are built from the index table of φ; the ev/coev checks apply them to one
vector through the same table and never build R⊠S.  The permutation
matrices they are tested against live with the test oracles.

Generator convention for hom spaces, fixed once for the whole package:
the generator t_i^j = w^j ⊗ v_i of hom(W, V) sits at flat index
g = j·dim(V) + i (dual index major), which is exactly the Kronecker
flattening of W*⊗V.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, Sequence

from .linalg import Matrix, Scalar, _kron_sum_apply, kronecker
from .report import VerificationReport
from .tensors import invert_table, phi_table, push_row


class EquippedSpace:
    """Pair (dimension, degree -> structure matrix of size dim^degree).

    Degrees absent from the map are the zero map.  A degree-1 entry is
    only legal when it is the zero matrix, which keeps the quotient
    algebra generated in degree one.  Instances are immutable.
    """

    __slots__ = ("_dim", "_structure")

    def __init__(self, dim: int, structure: Mapping[int, Matrix] | None = None):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        structure = dict(structure or {})
        for n, mat in structure.items():
            if n < 1:
                raise ValueError(f"structure degree {n} out of range (need >= 1)")
            size = dim**n
            if mat.rows != size or mat.cols != size:
                raise ValueError(
                    f"structure matrix at degree {n} must be {size}x{size}, "
                    f"got {mat.rows}x{mat.cols}"
                )
            if n == 1 and not mat.is_zero():
                raise ValueError("degree-1 structure must be the zero matrix")
        self._dim = dim
        self._structure = structure

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._structure))

    def structure_at(self, n: int) -> Matrix:
        size = self._dim**n
        mat = self._structure.get(n)
        return mat if mat is not None else Matrix.zero(size, size)

    def structure_items(self) -> list[tuple[int, Matrix]]:
        return sorted(self._structure.items())

    def is_quadratic(self) -> bool:
        return set(self._structure) <= {2}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquippedSpace):
            return NotImplemented
        return self._dim == other._dim and self._structure == other._structure

    def __repr__(self) -> str:
        return f"EquippedSpace(dim={self._dim}, support={list(self.support)})"


def unit_K() -> EquippedSpace:
    """The unit object: the scalar line with zero structure."""
    return EquippedSpace(1, {})


def boxtimes_degree(Rn: Matrix, Sn: Matrix, dV: int, dW: int, n: int) -> Matrix:
    """Degree-n structure φ⁻¹(Rn⊗I + I⊗Sn)φ of a product space.

    Built by index bookkeeping: entry ((i,k),(j,l)) of Rn⊗I + I⊗Sn is
    Rn[i,j]·δ_kl + δ_ij·Sn[k,l], and conjugating by the permutation φ just
    relabels both indices.  Only nonzeros are visited.  The cells of Rn⊗I
    are distinct, so they are set; a cell of I⊗Sn meets one of them only
    when i = j and k = l, so it is added only where the cell is nonzero.
    Conjugating by the permutation matrix of φ gives the same matrix; tests
    assert the agreement.
    """
    size = (dV * dW) ** n
    inv = invert_table(phi_table(dV, dW, n))
    wn = dW**n
    out = [[0] * size for _ in range(size)]
    for i, row in enumerate(Rn.cells):
        targets = inv[i * wn : (i + 1) * wn]
        for j in compress(range(len(row)), row):
            val = row[j]
            for s, t in zip(targets, inv[j * wn : (j + 1) * wn]):
                out[s][t] = val
    vn = dV**n
    for k, row in enumerate(Sn.cells):
        for l in compress(range(wn), row):
            val = row[l]
            for i in range(vn):
                orow = out[inv[i * wn + k]]
                t = inv[i * wn + l]
                orow[t] = orow[t] + val if orow[t] else val
    return Matrix._trusted(out, size)


def _boxtimes_apply(
    Rn: Matrix, Sn: Matrix, dV: int, dW: int, n: int, vec: Sequence[Scalar]
) -> tuple[Scalar, ...]:
    """boxtimes_degree(Rn, Sn, dV, dW, n).apply(vec) without building the matrix.

    Its entry (s, t) is entry (φ(s), φ(t)) of Rn⊗I + I⊗Sn, applied by _kron_sum_apply.
    """
    table = phi_table(dV, dW, n)
    image = _kron_sum_apply(Rn, Sn, push_row(vec, table))
    return tuple(image[t] for t in table)


def boxtimes(V: EquippedSpace, W: EquippedSpace) -> EquippedSpace:
    """Monoidal product: dim dV·dW, structure R⊠S per degree."""
    support = sorted(set(V.support) | set(W.support))
    structure = {
        n: boxtimes_degree(V.structure_at(n), W.structure_at(n), V.dim, W.dim, n)
        for n in support
    }
    return EquippedSpace(V.dim * W.dim, structure)


def dagger(V: EquippedSpace) -> EquippedSpace:
    """Dual space with structure -Rᵀ per degree."""
    return EquippedSpace(V.dim, {n: -mat.transpose() for n, mat in V.structure_items()})


def hom_space(W: EquippedSpace, V: EquippedSpace) -> EquippedSpace:
    """Internal hom, dagger(W) ⊠ V; generators t_i^j at flat index j·dV + i."""
    return boxtimes(dagger(W), V)


def _tensor_power(m: Matrix, n: int) -> Matrix:
    out = Matrix.identity(1)
    for _ in range(n):
        out = kronecker(out, m)
    return out


def check_morphism(l: Matrix, V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Check l^{⊗n}·R_n = S_n·l^{⊗n} for every supported degree n."""
    if l.rows != W.dim or l.cols != V.dim:
        raise ValueError(
            f"map must be {W.dim}x{V.dim}, got {l.rows}x{l.cols}"
        )
    for n in sorted(set(V.support) | set(W.support)):
        ln = _tensor_power(l, n)
        lhs = ln * V.structure_at(n)
        rhs = W.structure_at(n) * ln
        if lhs != rhs:
            diff = lhs - rhs
            col = next(
                c for c in range(diff.cols) if any(diff[r, c] != 0 for r in range(diff.rows))
            )
            return VerificationReport(
                "morphism-intertwines",
                False,
                witness={
                    "degree": n,
                    "column": col,
                    "difference": [diff[r, col] for r in range(diff.rows)],
                },
            )
    return VerificationReport("morphism-intertwines", True)


def ev_row(d: int) -> Matrix:
    """1×d² pairing row on V*⊗V: entry 1 at each flat index (j, j)."""
    return Matrix([[int(divmod(g, d)[0] == divmod(g, d)[1]) for g in range(d * d)]])


def coev_column(d: int) -> Matrix:
    """d²×1 coevaluation column on V⊗V*: entry 1 at each flat index (i, i)."""
    return Matrix([[int(divmod(g, d)[0] == divmod(g, d)[1])] for g in range(d * d)])


def ev_map(V: EquippedSpace) -> VerificationReport:
    """Check that evaluation dagger(V) ⊠ V -> unit is a morphism.

    Reports what check_morphism gives on the built product; the row
    ev^{⊗n}·(R†⊠R)_n is computed as (R†ᵀ⊠Rᵀ)_n·ev^{⊗n}.  A failure is a bug,
    never bad input: the pairing intertwines any structure with zero.
    """
    D, d = dagger(V), V.dim
    for n in sorted(set(D.support) | set(V.support)):
        Dt, Rt = D.structure_at(n).transpose(), V.structure_at(n).transpose()
        row = _boxtimes_apply(Dt, Rt, d, d, n, _tensor_power(ev_row(d), n).cells[0])
        col = next((c for c, x in enumerate(row) if x != 0), None)
        if col is not None:
            witness = {"degree": n, "column": col, "difference": [row[col]]}
            return VerificationReport("ev-morphism", False, witness=witness)
    return VerificationReport("ev-morphism", True)


def coev_map(V: EquippedSpace) -> VerificationReport:
    """Check that coevaluation unit -> V ⊠ dagger(V) is a morphism, as ev_map does."""
    D, d = dagger(V), V.dim
    for n in sorted(set(D.support) | set(V.support)):
        vec = _tensor_power(coev_column(d), n).transpose().cells[0]
        image = _boxtimes_apply(V.structure_at(n), D.structure_at(n), d, d, n, vec)
        if any(x != 0 for x in image):
            witness = {"degree": n, "column": 0, "difference": [-x for x in image]}
            return VerificationReport("coev-morphism", False, witness=witness)
    return VerificationReport("coev-morphism", True)
