"""Linear spaces equipped with graded structure maps: the rigid monoidal layer.

An equipped space is a pair (V, R) where R is a finitely supported family
of endomorphisms R_n of V^{⊗n}.  The module provides the monoidal product
``boxtimes`` (R⊠S = φ⁻¹(R⊗I + I⊗S)φ per degree), the duality ``dagger``
((V*, -Rᵀ)) and internal hom spaces.  Every row of R⊠S comes from one
rule on the index table of φ, ``_boxtimes_row``: the product and hom
commands write them as they are made, and the ev/coev checks in suites
sum only the pairing rows (J,J).  Every -Rᵀ comes from ``_dual_columns``,
which takes sparse rows one at a time: dagger passes a matrix's rows, the
ev/coev checks theirs, and the ``dual`` command the rows of a file as
they are read.  The module loads the matrix module, and the tensor index
tables only to build a product.

Generator convention for hom spaces, fixed once for the whole package:
the generator t_i^j = w^j ⊗ v_i of hom(W, V) sits at flat index
g = j·dim(V) + i (dual index major), which is exactly the Kronecker
flattening of W*⊗V.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import repeat
from sys import byteorder

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


def _boxtimes_row(
    rrow: dict[int, Scalar], srow: dict[int, Scalar], i: int, k: int, inv: Sequence[int], wn: int
) -> dict[int, Scalar]:
    """Nonzeros of row s = φ⁻¹(i,k) of φ⁻¹(Rn⊗I + I⊗Sn)φ.

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
    return row


def _boxtimes_rows(Rn: Matrix, Sn: Matrix, dV: int, dW: int, n: int) -> Iterator:
    """The rows of φ⁻¹(Rn⊗I + I⊗Sn)φ in order, each made when it is asked for.

    Row s is row (i,k) = divmod(φ[s], dW^n) of Rn⊗I + I⊗Sn, relabelled.
    The index tables are built at once.
    """
    from .tensors import phi_inverse, phi_table
    inv = phi_inverse(dV, dW, n)
    wn = dW**n
    rrows, srows = Rn.nonzeros, Sn.nonzeros
    return (
        _boxtimes_row(rrows[i], srows[k], i, k, inv, wn)
        for i, k in map(divmod, phi_table(dV, dW, n), repeat(wn))
    )


def boxtimes_degree(Rn: Matrix, Sn: Matrix, dV: int, dW: int, n: int) -> Matrix:
    """Degree-n structure φ⁻¹(Rn⊗I + I⊗Sn)φ of a product space, row by row.

    Conjugating by the permutation matrix of φ gives the same matrix; tests
    assert the agreement.
    """
    return Matrix._trusted(_boxtimes_rows(Rn, Sn, dV, dW, n), (dV * dW) ** n)


def boxtimes(V: EquippedSpace, W: EquippedSpace) -> EquippedSpace:
    """Monoidal product: dim dV·dW, structure R⊠S per degree."""
    support = sorted(set(V.support) | set(W.support))
    structure = {
        n: boxtimes_degree(V.structure_at(n), W.structure_at(n), V.dim, W.dim, n)
        for n in support
    }
    return EquippedSpace(V.dim * W.dim, structure)


def _boxtimes_structure(V: EquippedSpace, W: EquippedSpace) -> tuple[int, dict]:
    """The dimension of boxtimes(V, W) and per degree its rows, made when asked for, and width.

    A row is its (column, entry) pairs.
    """
    dV, dW = V.dim, W.dim
    return dV * dW, {
        n: (
            map(dict.items, _boxtimes_rows(V.structure_at(n), W.structure_at(n), dV, dW, n)),
            (dV * dW) ** n,
        )
        for n in sorted(set(V.support) | set(W.support))
    }


def _dual_columns(rows: Iterable[dict[int, Scalar]], width: int) -> tuple[list, int, list]:
    """-Rᵀ, the dual's structure at one degree, for R of these sparse rows and width.

    Row j of -Rᵀ is a bytearray of its nonzeros in ascending i, each the
    pair i, c of native 4-byte unsigned ints, where -R[i,j] is entries[c]
    (see _pairs).  The call gives the rows, their width, the number of rows
    of R, and entries.  One pass reads each row once, as it comes, so the
    file reader never holds R.  Each distinct entry, by value and type, is
    negated once and given one code.  An entry object is looked up by its
    id first, which hashes no Fraction: the reader and boxtimes share one
    object per distinct value.  The call holds each object it keys by id,
    so no id is reused while it runs, even for rows made and dropped one at
    a time.
    """
    cols = [bytearray() for _ in range(width)]
    by_id: dict[int, bytes] = {}
    held: list[Scalar] = []  # every x keyed in by_id
    by_value: dict[tuple[Scalar, type], bytes] = {}
    entries: list[Scalar] = []
    i = -1
    for i, row in enumerate(rows):
        at = i.to_bytes(4, byteorder)
        for j, x in row.items():
            code = by_id.get(id(x))
            if code is None:
                key = (x, type(x))  # 2 == Fraction(2) and they hash alike; each keeps its type
                code = by_value.get(key)
                if code is None:
                    code = by_value[key] = len(entries).to_bytes(4, byteorder)
                    entries.append(-x)
                by_id[id(x)] = code
                held.append(x)
            col = cols[j]
            col += at
            col += code
    return cols, i + 1, entries


def _pairs(col: bytearray, entries: list[Scalar]) -> Iterator:
    """The (column, entry) pairs of a row that _dual_columns packs.

    Eight bytes a nonzero take half of two list slots, and a sixth to an
    eighth of what a dict or a list of pairs takes.
    """
    it = iter(memoryview(col).cast("I"))
    return zip(it, map(entries.__getitem__, it))


def _dual(rows: Iterable[dict[int, Scalar]], width: int) -> Matrix:
    """-Rᵀ as a Matrix, for R of these sparse rows and width, from _dual_columns's rows."""
    cols, height, entries = _dual_columns(rows, width)
    return Matrix._trusted(map(dict, map(_pairs, cols, repeat(entries))), height)


def dagger(V: EquippedSpace) -> EquippedSpace:
    """Dual space with structure -Rᵀ per degree, each built by _dual."""
    structure = {n: _dual(mat.nonzeros, mat.cols) for n, mat in V.structure_items()}
    return EquippedSpace(V.dim, structure)


def hom_space(W: EquippedSpace, V: EquippedSpace) -> EquippedSpace:
    """Internal hom, dagger(W) ⊠ V; generators t_i^j at flat index j·dV + i."""
    return boxtimes(dagger(W), V)
