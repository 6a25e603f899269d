"""Exact sparse matrices over the rationals, and the package's scalar boundary.

Scalars are exactly ``int`` and ``fractions.Fraction``.  Every vector or
row the package takes is checked by ``_as_row``, which raises TypeError on
any other entry type (bool, float, str, Decimal, zeros included) and on a
sparse row's column that is not exactly int, so equality tests carry zero
tolerance.  A ``Matrix`` keeps only its nonzeros, row by row, and has the
operations that the checks run: negation and transpose.  Elimination is
in linalg.  The construct commands load neither module: they run the row
rules of the rows module on the sparse rows of their files.  ``Record``,
the immutable value that subspaces, comultiplications and check outcomes
are, is here too, so elimination loads no report code.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress

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

    Matrix and the Subspace methods take their vectors through here: each
    entry given, zeros included, must be exactly int or Fraction, and each
    column of a sparse row exactly int.
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

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(({j: -x for j, x in r.items()} for r in self._data), self._cols)

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


class Record:
    """Immutable value whose fields are the public names in ``__slots__``.

    Equality, hash and repr go over those fields.  A subclass sets each slot
    once in ``__init__`` through ``_set``; assignment afterwards raises
    AttributeError.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _items(self) -> list[tuple[str, object]]:
        return [(f, getattr(self, f)) for f in self.__slots__ if not f.startswith("_")]

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self) -> int:
        return hash(tuple(self._items()))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in self._items())
        return f"{type(self).__name__}({args})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(v for _, v in self._items())
