"""Exact elimination over the rationals: canonical subspaces and their spans.

Subspaces are stored as reduced row-echelon bases, which makes the RREF
the unique canonical form for subspace equality; images are column
spaces.  Elimination runs over primitive integer rows, each row operation
divided by the gcd of its entries, and makes fractions only in the final
normalization.  Every row taken is checked by ``matrix._as_row``, so only
ints and Fractions enter.  Containment in a span is
``Subspace.first_outside``; containment in a tensor sum X⊗k^b + k^a⊗Y of
relation ideals is tested on the quotient side, by normal forms in the
frt module.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .matrix import Matrix, Scalar, Vector, _as_row
from .report import Record


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_rows(raw_rows: Iterable[Vector], ncols: int) -> tuple[list[dict[int, Scalar]], list[int]]:
    """Canonical reduced row echelon form as sparse rows, and its pivot columns.

    A row is a sequence of ncols entries or a dict from column to entry;
    every entry given is type-checked.  Zero rows are dropped and wrong
    widths rejected.  Elimination runs over dense primitive integer rows:
    denominators are cleared per row from its nonzeros, pivots are chosen
    with minimal magnitude to limit growth, and every row operation's
    result is divided by the gcd of its entries.  Only the final pivot
    normalization makes fractions, so everything stays exact.  The pivot
    strategy never affects the result, which is the unique RREF of the row
    space.  The forward pass stops once every row holds a pivot.
    """
    work: list[list[int]] = []
    for r in raw_rows:
        r = _as_row(r, ncols)
        scale = lcm(*[x.denominator for x in r.values()])
        row = [0] * ncols
        for j, x in r.items():
            row[j] = x.numerator * (scale // x.denominator)
        if any(row):
            work.append(_primitive(row))
    pivots: list[int] = []
    rank = 0
    # Forward pass: integer echelon form.  Rows at index >= rank are zero
    # left of the current column, so row operations run on tails only.
    for col in range(ncols):
        if rank == len(work):
            break
        piv = None
        best = None
        for r in range(rank, len(work)):
            v = work[r][col]
            if v != 0:
                a = abs(v)
                if best is None or a < best:
                    piv, best = r, a
                    if a == 1:
                        break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        a = prow[col]
        ptail = prow[col:]
        for r in range(rank + 1, len(work)):
            wr = work[r]
            b = wr[col]
            if b == 0:
                continue
            work[r] = [0] * col + _primitive([a * x - b * y for x, y in zip(wr[col:], ptail)])
        pivots.append(col)
        rank += 1
    # Backward pass: clear above the pivots, still over integers.
    for i in range(rank - 2, -1, -1):
        wi = work[i]
        for j in range(i + 1, rank):
            b = wi[pivots[j]]
            if b == 0:
                continue
            a = work[j][pivots[j]]
            wi = _primitive([a * x - b * y for x, y in zip(wi, work[j])])
        work[i] = wi
    out: list[dict[int, Scalar]] = []
    for row, col in zip(work, pivots):
        lead = row[col]
        nonzero = compress(range(col, ncols), row[col:])
        if lead == 1:
            out.append({j: row[j] for j in nonzero})
        else:
            out.append({j: Fraction(row[j], lead) for j in nonzero})
    return out, pivots


class Subspace(Record):
    """Subspace of k^ambient_dim with canonical reduced row-echelon basis.

    Construct through :meth:`from_rows`; equality of subspaces is plain
    equality of the canonical bases.  The constructor checks that a given
    basis is one, by reducing it: the RREF of a row space is unique.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        rows, pivots = _rref_rows(basis.nonzeros, ambient_dim)
        if rows != list(basis.nonzeros):
            raise ValueError("basis is not in reduced row-echelon form")
        self._set(ambient_dim, basis, dict(zip(pivots, basis.nonzeros)))

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Vector]) -> "Subspace":
        """Span of rows, each a sequence of ambient_dim entries or a dict as in Matrix.nonzeros."""
        basis, pivots = _rref_rows(rows, ambient_dim)
        span = object.__new__(cls)
        span._set(ambient_dim, Matrix._trusted(basis, ambient_dim), dict(zip(pivots, basis)))
        return span

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivot_columns(self) -> list[int]:
        return list(self._pivots)

    def reduce_vector(self, vec: Vector) -> dict[int, Scalar]:
        """Nonzeros of the residue of vec after eliminating all pivot coordinates.

        vec is a sequence of ambient_dim coordinates or a dict of nonzeros,
        such as a row of ``Matrix.nonzeros``.  Every pivot column is zero in
        every other basis row, so the coefficient of the row with pivot p is
        vec[p]: only the pivot entries of vec are visited, and only their
        rows' nonzeros.
        """
        vec = _as_row(vec, self.ambient_dim)
        res = dict(vec)
        for p, c in vec.items():
            row = self._pivots.get(p)
            if row is not None:
                for j, y in row.items():
                    res[j] = res.get(j, 0) - c * y
        return {j: x for j, x in res.items() if x}

    def first_outside(self, vectors: Iterable[Vector]) -> int | None:
        """Index of the first vector not in the span, or None when all are.

        Vectors are as for reduce_vector.  They are consumed lazily, so a
        caller that computes them one at a time stops computing at the first
        failure.  Containment of a subspace b is
        ``first_outside(b.basis.nonzeros) is None``.
        """
        for i, vec in enumerate(vectors):
            if self.reduce_vector(vec):
                return i
        return None


def kernel(m: Matrix) -> Subspace:
    """Canonical form of {x : m·x = 0}: one vector per free column of the RREF of m."""
    red = Subspace.from_rows(m.cols, m.nonzeros)
    vectors = {free: {free: 1} for free in range(m.cols) if free not in red._pivots}
    for p, row in red._pivots.items():
        for j, x in row.items():
            if j in vectors:
                vectors[j][p] = -x
    return Subspace.from_rows(m.cols, vectors.values())


def column_space(m: Matrix) -> Subspace:
    """Canonical span of the columns of m (the image of the map)."""
    return Subspace.from_rows(m.rows, m.transpose().nonzeros)
