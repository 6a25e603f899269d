"""Linear spaces equipped with graded structure maps: the rigid monoidal layer.

An equipped space is a pair (V, R) where R is a finitely supported family
of endomorphisms R_n of V^{⊗n}.  The module provides the monoidal product
``boxtimes`` (R⊠S = φ⁻¹(R⊗I + I⊗S)φ per degree), the duality ``dagger``
((V*, -Rᵀ)) and internal hom spaces, as matrices.  Their rows come from
the row rules of the rows module, the rules the product, hom and dual
commands run on the rows of a file, so there is one rule for a row of
R⊠S and one builder of -Rᵀ.  The module loads the matrix module, and the
row rules only to build a product or a dual, so the algebra commands
never compile them.

Generator convention for hom spaces, fixed once for the whole package:
the generator t_i^j = w^j ⊗ v_i of hom(W, V) sits at flat index
g = j·dim(V) + i (dual index major), which is exactly the Kronecker
flattening of W*⊗V.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .matrix import Matrix, Scalar


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


def boxtimes_degree(Rn: Matrix, Sn: Matrix, dV: int, dW: int, n: int) -> Matrix:
    """Degree-n structure φ⁻¹(Rn⊗I + I⊗Sn)φ of a product space, row by row.

    Conjugating by the permutation matrix of φ gives the same matrix; tests
    assert the agreement.
    """
    from .rows import _boxtimes_rows
    return Matrix._trusted(_boxtimes_rows(Rn.nonzeros, Sn.nonzeros, dV, dW, n), (dV * dW) ** n)


def boxtimes(V: EquippedSpace, W: EquippedSpace) -> EquippedSpace:
    """Monoidal product: dim dV·dW, structure R⊠S per degree."""
    support = sorted(set(V.support) | set(W.support))
    structure = {
        n: boxtimes_degree(V.structure_at(n), W.structure_at(n), V.dim, W.dim, n)
        for n in support
    }
    return EquippedSpace(V.dim * W.dim, structure)


def _dual(rows: Iterable[dict[int, Scalar]], width: int) -> Matrix:
    """-Rᵀ as a Matrix, for R of these sparse rows and width, from _dual_columns's rows."""
    from .rows import _dual_columns, _dual_rows
    cols, height, entries = _dual_columns(rows, width)
    return Matrix._trusted(_dual_rows(cols, entries), height)


def dagger(V: EquippedSpace) -> EquippedSpace:
    """Dual space with structure -Rᵀ per degree, each built by _dual."""
    structure = {n: _dual(mat.nonzeros, mat.cols) for n, mat in V.structure_items()}
    return EquippedSpace(V.dim, structure)


def hom_space(W: EquippedSpace, V: EquippedSpace) -> EquippedSpace:
    """Internal hom, dagger(W) ⊠ V; generators t_i^j at flat index j·dV + i."""
    return boxtimes(dagger(W), V)
