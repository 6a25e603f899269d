"""Linear spaces equipped with graded structure maps.

An equipped space is a pair (V, R) where R is a finitely supported family
of endomorphisms R_n of V^{⊗n}.  The module provides the monoidal product
``boxtimes`` (R⊠S = φ⁻¹(R⊗I + I⊗S)φ per degree), the duality ``dagger``
((V*, -Rᵀ)), the check that a linear map intertwines two structures, the
evaluation and coevaluation arrows of the rigid structure with that check
applied to them, and internal hom spaces.  Every row of R⊠S comes from one
rule on the index table of φ: products and homs build all rows, and the
ev/coev checks sum only the pairing rows (J,J).  The permutation matrices
they are tested against live with the test oracles.

Generator convention for hom spaces, fixed once for the whole package:
the generator t_i^j = w^j ⊗ v_i of hom(W, V) sits at flat index
g = j·dim(V) + i (dual index major), which is exactly the Kronecker
flattening of W*⊗V.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .linalg import Matrix, Scalar, kronecker
from .report import VerificationReport
from .tensors import phi_inverse


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


def _boxtimes_row(
    rrow: dict[int, Scalar], srow: dict[int, Scalar], i: int, k: int, inv: Sequence[int], wn: int
) -> tuple[int, dict[int, Scalar]]:
    """Index s and nonzeros of row s = φ⁻¹(i,k) of φ⁻¹(Rn⊗I + I⊗Sn)φ.

    Entry ((i,k),(j,l)) of Rn⊗I + I⊗Sn is Rn[i,j]·δ_kl + δ_ij·Sn[k,l], and
    conjugating by the permutation φ relabels both indices through inv, the
    inverse of φ's table.  So the row is row i of Rn, rrow, at the columns
    (j,k) and row k of Sn, srow, at the columns (i,l); they meet only on
    the diagonal (i,k), where the entry is Rn[i,i] + Sn[k,k].
    """
    base = i * wn
    row = {inv[j * wn + k]: x for j, x in rrow.items()}
    row.update({inv[base + l]: y for l, y in srow.items()})
    s = inv[base + k]
    diagonal = rrow.get(i, 0) + srow.get(k, 0)
    if diagonal:
        row[s] = diagonal
    else:
        row.pop(s, None)
    return s, row


def boxtimes_degree(Rn: Matrix, Sn: Matrix, dV: int, dW: int, n: int) -> Matrix:
    """Degree-n structure φ⁻¹(Rn⊗I + I⊗Sn)φ of a product space, row by row.

    Conjugating by the permutation matrix of φ gives the same matrix; tests
    assert the agreement.
    """
    size = (dV * dW) ** n
    inv = phi_inverse(dV, dW, n)
    wn = dW**n
    out: list = [None] * size
    for i, rrow in enumerate(Rn.nonzeros):
        for k, srow in enumerate(Sn.nonzeros):
            s, row = _boxtimes_row(rrow, srow, i, k, inv, wn)
            out[s] = row
    return Matrix._trusted(out, size)


def _pairing_rows_sum(Rn: Matrix, Sn: Matrix, d: int, n: int) -> dict[int, Scalar]:
    """Nonzeros of the sum of the rows (J,J) of Rn⊠Sn, J over the d^n words.

    That is the pairing row, 1 at each (J,J) through φ, times Rn⊠Sn; only
    d^n of its (d²)^n rows are built.
    """
    inv = phi_inverse(d, d, n)
    wn = d**n
    acc: dict[int, Scalar] = {}
    for J, (rrow, srow) in enumerate(zip(Rn.nonzeros, Sn.nonzeros)):
        for c, x in _boxtimes_row(rrow, srow, J, J, inv, wn)[1].items():
            acc[c] = acc[c] + x if c in acc else x
    return {c: x for c, x in acc.items() if x}


def boxtimes(V: EquippedSpace, W: EquippedSpace) -> EquippedSpace:
    """Monoidal product: dim dV·dW, structure R⊠S per degree."""
    support = sorted(set(V.support) | set(W.support))
    structure = {
        n: boxtimes_degree(V.structure_at(n), W.structure_at(n), V.dim, W.dim, n)
        for n in support
    }
    return EquippedSpace(V.dim * W.dim, structure)


def dagger(V: EquippedSpace) -> EquippedSpace:
    """Dual space with structure -Rᵀ per degree, written in one pass over the nonzeros."""
    structure = {}
    for n, mat in V.structure_items():
        cols: list[dict[int, Scalar]] = [{} for _ in range(mat.cols)]
        for i, row in enumerate(mat.nonzeros):
            for j, x in row.items():
                cols[j][i] = -x
        structure[n] = Matrix._trusted(cols, mat.rows)
    return EquippedSpace(V.dim, structure)


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
            col = min(c for row in diff.nonzeros for c in row)
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

    Reports what check_morphism gives on the built product: the row
    ev^{⊗n}·(R†⊠R)_n is the sum of the pairing rows of (R†⊠R)_n.  A failure
    is a bug, never bad input: the pairing intertwines any structure with zero.
    """
    D, d = dagger(V), V.dim
    for n in sorted(set(D.support) | set(V.support)):
        row = _pairing_rows_sum(D.structure_at(n), V.structure_at(n), d, n)
        if row:
            col = min(row)
            witness = {"degree": n, "column": col, "difference": [row[col]]}
            return VerificationReport("ev-morphism", False, witness=witness)
    return VerificationReport("ev-morphism", True)


def coev_map(V: EquippedSpace) -> VerificationReport:
    """Check that coevaluation unit -> V ⊠ dagger(V) is a morphism, as ev_map does.

    The column (R⊠R†)_n·coev^{⊗n} is the sum of the pairing rows of its
    transpose, (Rᵀ⊠R†ᵀ)_n.
    """
    D, d = dagger(V), V.dim
    for n in sorted(set(D.support) | set(V.support)):
        Rt, Dt = V.structure_at(n).transpose(), D.structure_at(n).transpose()
        image = _pairing_rows_sum(Rt, Dt, d, n)
        if image:
            difference = [-image.get(c, 0) for c in range(d ** (2 * n))]
            witness = {"degree": n, "column": 0, "difference": difference}
            return VerificationReport("coev-morphism", False, witness=witness)
    return VerificationReport("coev-morphism", True)
