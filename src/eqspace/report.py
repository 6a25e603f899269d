"""Value records and the outcome types shared by all check operations."""

from __future__ import annotations

from collections.abc import Mapping


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


class VerificationReport(Record):
    """Named check outcome; failed reports always carry witness data."""

    __slots__ = ("name", "passed", "witness", "dimensions")

    def __init__(
        self,
        name: str,
        passed: bool,
        witness: Mapping[str, object] | None = None,
        dimensions: Mapping[str, int] | None = None,
    ):
        if not passed and witness is None:
            raise ValueError("failed report requires a witness")
        self._set(name, passed, witness, dimensions)

    def __bool__(self) -> bool:
        return self.passed
