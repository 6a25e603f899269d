"""Exact sparse linear algebra over the rationals.

Scalars are exactly ``int`` and ``fractions.Fraction``: every vector or
row the module takes, in ``Matrix``, ``Matrix.apply`` and the ``Subspace``
methods, is checked by one function, which raises TypeError on any other
entry type, bool, float, str and Decimal included, zeros included, and on
a sparse row's column that is not exactly int.  So every value past them is
exact and equality tests carry zero tolerance.  A ``Matrix`` keeps only
its nonzeros, row by row, and its operations visit nothing else.  Maps act
on column coordinate vectors, images are column spaces, and subspaces are
stored as reduced row-echelon bases, which makes the RREF the unique
canonical form for subspace equality.  Elimination runs over primitive
integer rows, each row operation divided by the gcd of its entries, and
makes fractions only in the final normalization.  Containment in a span is
``Subspace.first_outside``; containment in a tensor sum X⊗k^b + k^a⊗Y of
relation ideals is tested on the quotient side, by normal forms in the
algebras module.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .report import Record

Scalar = int | Fraction
Vector = Sequence[Scalar] | dict[int, Scalar]  # coordinates, or a dict of nonzeros
_EXACT = frozenset((int, Fraction))
_INT = frozenset((int,))


def _require_exact(entries: Iterable[object]) -> None:
    """Raise TypeError unless every entry's type is exactly int or Fraction."""
    if not _EXACT.issuperset(map(type, entries)):
        bad = next(x for x in entries if type(x) not in _EXACT)
        raise TypeError(f"entries must be int or Fraction, got {bad!r}")


def _as_row(vec: Vector, ncols: int) -> dict[int, Scalar]:
    """A sparse row as it is, or the nonzeros of a sequence of exactly ncols entries.

    Matrix, Matrix.apply, the Subspace methods and normal forms take their
    vectors through here: each entry given, zeros included, must be exactly
    int or Fraction, and each column of a sparse row exactly int.
    """
    if isinstance(vec, dict):
        if not _INT.issuperset(map(type, vec)):
            bad = next(j for j in vec if type(j) is not int)
            raise TypeError(f"columns must be int, got {bad!r}")
        if vec and not 0 <= min(vec) <= max(vec) < ncols:
            raise ValueError(f"row with a column outside ambient dimension {ncols}")
        _require_exact(vec.values())
        return vec
    if len(vec) != ncols:
        raise ValueError(f"row of length {len(vec)} in ambient dimension {ncols}")
    _require_exact(vec)
    return dict(zip(compress(range(ncols), vec), compress(vec, vec)))


def _plus(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    out = dict(a)
    for j, y in b.items():
        v = out.pop(j, 0) + y
        if v:
            out[j] = v
    return out


class Matrix:
    """Immutable sparse matrix whose entries are ints and Fractions.

    Row i is stored as a dict from column to nonzero entry, ``nonzeros[i]``,
    and every operation visits nonzeros only.  The constructor takes dense
    rows and checks the type of every entry, zeros included; ``cells`` is
    the dense view, for witnesses and tests.
    """

    __slots__ = ("_data", "_cols")

    def __init__(self, cells: Iterable[Iterable[Scalar]], cols: int | None = None):
        rows = tuple(tuple(row) for row in cells)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._data = tuple(_as_row(r, cols) for r in rows)
        self._cols = cols

    @classmethod
    def _trusted(cls, rows: Iterable[dict[int, Scalar]], cols: int) -> "Matrix":
        """Matrix of sparse rows, without zeros, that the package computed from checked entries."""
        m = object.__new__(cls)
        m._data, m._cols = tuple(rows), cols
        return m

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def nonzeros(self) -> tuple[dict[int, Scalar], ...]:
        """Per row, the dict from column to nonzero entry; read only."""
        return self._data

    @property
    def cells(self) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(tuple(r.get(j, 0) for j in range(self._cols)) for r in self._data)

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not 0 <= j < self._cols:
            raise IndexError("column index out of range")
        return self._data[i].get(j, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._cols == other._cols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._cols, tuple(frozenset(r.items()) for r in self._data)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self._cols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self._cols != other._cols:
            raise ValueError("shape mismatch")
        return Matrix._trusted(map(_plus, self._data, other._data), self._cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(({j: -x for j, x in r.items()} for r in self._data), self._cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self._cols} * {other.rows}x{other._cols}"
            )
        out = []
        for arow in self._data:
            acc: dict[int, Scalar] = {}
            for k, a in arow.items():
                for j, b in other._data[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return Matrix._trusted(out, other._cols)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Matrix times column coordinate vector, whose entries are checked as rows are."""
        v = _as_row(vec, self._cols)
        return tuple(sum([x * v[j] for j, x in r.items() if j in v]) for r in self._data)

    def transpose(self) -> "Matrix":
        out: list[dict[int, Scalar]] = [{} for _ in range(self._cols)]
        for i, r in enumerate(self._data):
            for j, x in r.items():
                out[j][i] = x
        return Matrix._trusted(out, self.rows)

    def is_zero(self) -> bool:
        return not any(self._data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted(({i: 1} for i in range(n)), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(({},) * rows, cols)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, left factor major: (a⊗b)[(i,k),(j,l)] = a[i,j]·b[k,l]."""
    q = b.cols
    rows = (
        {j * q + l: x * y for j, x in arow.items() for l, y in brow.items()}
        for arow in a.nonzeros
        for brow in b.nonzeros
    )
    return Matrix._trusted(rows, a.cols * q)


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
