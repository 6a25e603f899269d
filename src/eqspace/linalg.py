"""Exact elimination over the rationals: canonical subspaces and their spans.

Subspaces are stored as reduced row-echelon bases, which makes the RREF
the unique canonical form for subspace equality; images are column
spaces.  A row keeps one form from input to canonical basis, a sparse
dict from column to nonzero entry: elimination works on sparse primitive
integer rows, each row operation divided by the gcd of its entries, so its
cost follows the nonzeros and never the ambient dimension.  Only
``Subspace`` divides the canonical integer rows by their leads; the
quotient algebras keep them as integer rewrite rules.  Rows enter through
``Subspace.from_rows``, which checks each by ``matrix._as_row``, so only ints
and Fractions enter; the core ``_rref_rows`` takes nonzero integer entries.
Containment in a span is ``Subspace.first_outside``; containment in a
tensor sum X⊗k^b + k^a⊗Y of relation ideals is tested on the quotient
side, by normal forms in the frt module.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .matrix import Matrix, Record, Scalar, Vector, _as_row


def _scaled(row: dict[int, Scalar]) -> tuple[int, dict[int, int]]:
    """(m, nonzeros of m·row) for the least m > 0 that makes m·row integral."""
    m = lcm(*[x.denominator for x in row.values()])
    return m, {j: x.numerator * (m // x.denominator) for j, x in row.items() if x}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _cancel(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """a·row − b·prow made primitive, with a, b the entries at col, so col drops out."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    out = {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _rref_rows(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Canonical reduced row echelon form as sparse primitive integer rows.

    Each row is a dict from column to nonzero int, unchecked: outside rows
    come through ``Subspace.from_rows``.  Working rows are made primitive,
    and every row operation's result is divided by the gcd of its entries.
    The forward pass buckets rows by leading column and pops the columns in
    ascending order from a heap.  In each bucket the row of least ``|lead|``
    is the pivot, to limit growth; it clears the column from the bucket's
    other rows, which move to the buckets of their new leading columns.
    The backward pass clears, in each pivot row, only the other pivot
    columns it holds.  Each returned row has its columns in ascending order
    and a positive lead, so dividing it by its lead gives the unique RREF
    row; the pivot strategy never affects the result, and no step visits a
    column that no row holds.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if row := _primitive(r):
            buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapify(heap)
    pivot_rows: dict[int, dict[int, int]] = {}
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        prow = min(bucket, key=lambda r: abs(r[col]))
        for row in bucket:
            if row is not prow and (row := _cancel(row, prow, col)):
                lead = min(row)
                if lead not in buckets:
                    buckets[lead] = []
                    heappush(heap, lead)
                buckets[lead].append(row)
        pivot_rows[col] = prow
    pivots = list(pivot_rows)  # ascending: the heap pops columns in order
    # Backward pass, last pivot first: the rows below are already reduced,
    # so clearing a pivot column brings in no other pivot column.
    for p in reversed(pivots):
        row = pivot_rows[p]
        for q in [j for j in row if j != p and j in pivot_rows]:
            row = _cancel(row, pivot_rows[q], q)
        pivot_rows[p] = row
    out = []
    for p, row in pivot_rows.items():
        sign = 1 if row[p] > 0 else -1
        out.append({j: sign * row[j] for j in sorted(row)})
    return out


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
        span = Subspace.from_rows(ambient_dim, basis.nonzeros)
        if span.basis != basis:
            raise ValueError("basis is not in reduced row-echelon form")
        self._set(ambient_dim, span.basis, span._pivots)

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Vector]) -> "Subspace":
        """Span of rows, each a sequence of ambient_dim entries or a dict as in Matrix.nonzeros."""
        basis: list[dict[int, Scalar]] = []
        for row in _rref_rows(_scaled(_as_row(r, ambient_dim))[1] for r in rows):
            lead = next(iter(row.values()))
            basis.append(row if lead == 1 else {j: Fraction(x, lead) for j, x in row.items()})
        span = object.__new__(cls)
        span._set(ambient_dim, Matrix._trusted(basis, ambient_dim), {min(r): r for r in basis})
        return span

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.from_rows(ambient_dim, ())

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
