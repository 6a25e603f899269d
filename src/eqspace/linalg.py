"""Exact dense linear algebra over the rationals.

Scalars are exactly ``int`` and ``fractions.Fraction``: ``Matrix`` and
``Subspace.from_rows`` raise TypeError on any other entry type, bool,
float, str and Decimal included, so every value past them is exact and
equality tests carry zero tolerance.  Maps act on column coordinate
vectors, images are column spaces, and subspaces are stored as reduced
row-echelon bases, which makes the RREF the unique canonical form for
subspace equality.  Spans of the form X⊗k^b + k^a⊗Y are not built:
``TensorSum`` tests membership in them block by block.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd
from operator import add, neg, sub
from typing import Iterable, Sequence, Union

from .report import Record

Scalar = Union[int, Fraction]
_EXACT = frozenset((int, Fraction))


def _require_exact(rows: Sequence[Sequence[object]]) -> None:
    """Raise TypeError unless every entry's type is exactly int or Fraction."""
    if not _EXACT.issuperset(map(type, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if type(x) not in _EXACT)
        raise TypeError(f"entries must be int or Fraction, got {bad!r}")


class Matrix:
    """Immutable dense matrix whose entries are ints and Fractions."""

    __slots__ = ("_cells", "_rows", "_cols")

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
        _require_exact(rows)
        self._cells = rows
        self._rows = len(rows)
        self._cols = cols

    @classmethod
    def _trusted(cls, cells: Iterable[Iterable[Scalar]], cols: int) -> "Matrix":
        """Matrix of rows the package computed from checked entries, not checked again."""
        m = object.__new__(cls)
        m._cells = tuple(map(tuple, cells))
        m._rows, m._cols = len(m._cells), cols
        return m

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def cells(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._cells

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self._cells[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._cells == other._cells
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._cells))

    def __repr__(self) -> str:
        return f"Matrix({self._rows}x{self._cols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        pairs = zip(self._cells, other._cells)
        return Matrix._trusted((tuple(map(add, a, b)) for a, b in pairs), self._cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        pairs = zip(self._cells, other._cells)
        return Matrix._trusted((tuple(map(sub, a, b)) for a, b in pairs), self._cols)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted((tuple(map(neg, r)) for r in self._cells), self._cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._cols != other._rows:
            raise ValueError(
                f"shape mismatch: {self._rows}x{self._cols} * {other._rows}x{other._cols}"
            )
        out = [[0] * other._cols for _ in range(self._rows)]
        bcells = other._cells
        for i, arow in enumerate(self._cells):
            orow = out[i]
            for k, a in enumerate(arow):
                if a == 0:
                    continue
                brow = bcells[k]
                for j, b in enumerate(brow):
                    if b != 0:
                        orow[j] += a * b
        return Matrix._trusted(out, other._cols)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Matrix times column coordinate vector."""
        if len(vec) != self._cols:
            raise ValueError("vector length does not match column count")
        nonzero = [(j, x) for j, x in enumerate(vec) if x != 0]
        return tuple(
            sum([row[j] * x for j, x in nonzero if row[j] != 0]) for row in self._cells
        )

    def transpose(self) -> "Matrix":
        if self._rows == 0:
            return Matrix(((),) * self._cols, cols=0)
        return Matrix._trusted(zip(*self._cells), self._rows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._cells for x in r)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self._rows != other._rows or self._cols != other._cols:
            raise ValueError("shape mismatch")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls((tuple(int(i == j) for j in range(n)) for i in range(n)), cols=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(((0,) * cols for _ in range(rows)), cols=cols)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, left factor major: (a⊗b)[(i,k),(j,l)] = a[i,j]·b[k,l]."""
    out = [[0] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i, arow in enumerate(a.cells):
        for j, av in enumerate(arow):
            if av == 0:
                continue
            roff = i * b.rows
            coff = j * b.cols
            for k, brow in enumerate(b.cells):
                orow = out[roff + k]
                for l, bv in enumerate(brow):
                    if bv != 0:
                        orow[coff + l] = av * bv
    return Matrix._trusted(out, a.cols * b.cols)


def _kron_sum_apply(a: Matrix, b: Matrix, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """(a⊗I + I⊗b)·vec = vec(a·X + X·bᵀ) for square a, b; X is vec reshaped row-major."""
    p, q = a.rows, b.rows
    if len(vec) != p * q:
        raise ValueError("vector length does not match column count")
    xrows = [vec[i * q : (i + 1) * q] for i in range(p)]
    ax = [a.apply(col) for col in zip(*xrows)]  # the columns of a·X
    return tuple(
        ax[k][i] + y for i, row in enumerate(xrows) for k, y in enumerate(b.apply(row))
    )


def _clear_denominators(row: Sequence[Scalar]) -> list[int]:
    """Scale a rational row to integers (row space is unchanged)."""
    _require_exact((row,))
    lcm = 1
    for x in row:
        d = x.denominator
        if d != 1:
            lcm = lcm * d // gcd(lcm, d)
    if lcm == 1:
        return [int(x) for x in row]
    return [int(x * lcm) for x in row]


_CONTENT_BOUND = 1 << 96


def _reduce_content(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _rref_rows(raw_rows: Iterable[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Canonical reduced row echelon form; zero rows dropped.

    Elimination runs over integers: denominators are cleared per row,
    pivots are chosen with minimal magnitude to limit growth, and content
    is divided out once entries pass a size gate.  Only the final pivot
    normalization divides, so everything stays exact.  The pivot strategy
    never affects the result, which is the unique RREF of the row space.
    """
    work: list[list[int]] = []
    for r in raw_rows:
        row = _clear_denominators(r)
        if any(row):
            work.append(_reduce_content(row))
    pivots: list[int] = []
    rank = 0
    # Forward pass: integer echelon form.  Rows at index >= rank are zero
    # left of the current column, so row operations run on tails only.
    for col in range(ncols):
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
            tail = [a * x - b * y for x, y in zip(wr[col:], ptail)]
            if max(map(abs, tail), default=0) > _CONTENT_BOUND:
                tail = _reduce_content(tail)
            work[r] = [0] * col + tail
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
            wi = [a * x - b * y for x, y in zip(wi, work[j])]
            if max(map(abs, wi)) > _CONTENT_BOUND:
                wi = _reduce_content(wi)
        work[i] = wi
    out: list[list[Scalar]] = []
    for row, col in zip(work[:rank], pivots):
        lead = row[col]
        if lead == 1:
            out.append(list(row))
        else:
            out.append([Fraction(x, lead) for x in row])
    return out


def _canonical_pivots(basis: Matrix) -> dict[int, tuple] | None:
    """Pivot -> (column, value) pairs of the row's other nonzeros, or None.

    None unless basis is an RREF with no zero rows.  One pass over each row
    checks the form and builds the map: its nonzero columns must start with
    a 1 right of the previous row's pivot and miss every other pivot.
    """
    pivots: dict[int, tuple] = {}
    prev = -1
    for row in basis.cells:
        cols = list(compress(range(len(row)), row))
        if not cols or cols[0] <= prev or row[cols[0]] != 1:
            return None
        prev = cols[0]
        pivots[prev] = tuple((c, row[c]) for c in cols[1:])
    if any(c in pivots for tail in pivots.values() for c, _ in tail):
        return None
    return pivots


class Subspace(Record):
    """Subspace of k^ambient_dim with canonical reduced row-echelon basis.

    Construct through :meth:`from_rows`; equality of subspaces is plain
    equality of the canonical bases.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        pivots = _canonical_pivots(basis)
        if pivots is None:
            raise ValueError("basis is not in reduced row-echelon form")
        self._set(ambient_dim, basis, pivots)

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence[Scalar]]) -> "Subspace":
        return cls(ambient_dim, Matrix(_rref_rows(rows, ambient_dim), cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix((), cols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivot_columns(self) -> list[int]:
        return list(self._pivots)

    def reduce_vector(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Residue of vec after eliminating all pivot coordinates.

        Every pivot column is zero in every other basis row, so the
        coefficient of the row with pivot p is vec[p]: only the nonzero
        pivot entries of vec are visited, and only their rows' nonzeros.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        res = list(vec)
        pivots = self._pivots
        for p in compress(range(len(res)), vec):
            tail = pivots.get(p)
            if tail is not None:
                c = res[p]
                res[p] = 0
                for j, y in tail:
                    res[j] -= c * y
        return tuple(res)

    def first_outside(self, vectors: Iterable[Sequence[Scalar]]) -> int | None:
        """Index of the first vector not in the span, or None when all are.

        The vectors are consumed lazily, so a caller that computes them one
        at a time stops computing at the first failure.  Containment of a
        subspace b is ``first_outside(b.basis.cells) is None``.
        """
        for i, vec in enumerate(vectors):
            if any(self.reduce_vector(vec)):
                return i
        return None


class TensorSum(Record):
    """The span left⊗k^b + k^a⊗right inside k^(a·b), left factor major.

    Membership is tested without building the span, by the identity
    (k^a/X)⊗(k^b/Y) = (k^a⊗k^b)/(X⊗k^b + k^a⊗Y) (Polishchuk-Positselski,
    Quadratic Algebras, ch. 3): read a vector as a blocks of length b,
    reduce each block modulo right, and the vector lies in the span exactly
    when every column of the reduced blocks lies in left.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Subspace, right: Subspace):
        self._set(left, right)

    @property
    def dim(self) -> int:
        r, s = self.left.dim, self.right.dim
        return r * self.right.ambient_dim + self.left.ambient_dim * s - r * s

    def first_outside(self, vectors: Iterable[Sequence[Scalar]]) -> int | None:
        """Index of the first vector not in the span, or None when all are.

        Same contract as :meth:`Subspace.first_outside`: lazy, and a
        ValueError on a vector of the wrong length.
        """
        a, b = self.left.ambient_dim, self.right.ambient_dim
        for i, vec in enumerate(vectors):
            if len(vec) != a * b:
                raise ValueError("ambient dimension mismatch")
            blocks = [
                self.right.reduce_vector(vec[k * b : (k + 1) * b]) for k in range(a)
            ]
            if self.left.first_outside(zip(*blocks)) is not None:
                return i
        return None


def kernel(m: Matrix) -> Subspace:
    """Canonical form of {x : m·x = 0}."""
    red = Subspace.from_rows(m.cols, m.cells)
    pivots = red.pivot_columns()
    pivot_set = set(pivots)
    vectors = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec: list[Scalar] = [0] * m.cols
        vec[free] = 1
        for row, p in zip(red.basis.cells, pivots):
            if row[free] != 0:
                vec[p] = -row[free]
        vectors.append(vec)
    return Subspace.from_rows(m.cols, vectors)


def column_space(m: Matrix) -> Subspace:
    """Canonical span of the columns of m (the image of the map)."""
    return Subspace.from_rows(m.rows, m.transpose().cells)
