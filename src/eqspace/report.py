"""Value records, the check outcome type and the canonical report format.

Report serialization is canonical: checks sorted by name, keys sorted,
fixed indentation; identical inputs give identical bytes.  A report spells
a value by what it is, not by its Python type: an integer (int or
integral Fraction) is a JSON number and any other rational the string
"p/q".  The command line imports this module only in the handlers that
report, so product, dual and hom never compile it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction


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


def _jsonable(value: object) -> object:
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def report_to_dict(command: Sequence[str], checks: Iterable[VerificationReport]) -> dict:
    records = []
    for rep in sorted(checks, key=lambda r: r.name):
        record: dict[str, object] = {"name": rep.name, "pass": rep.passed}
        if rep.witness is not None:
            record["witness"] = _jsonable(rep.witness)
        if rep.dimensions is not None:
            record["dimensions"] = _jsonable(rep.dimensions)
        records.append(record)
    return {
        "command": list(command),
        "checks": records,
        "pass": all(r["pass"] for r in records),
    }


def dumps_canonical(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def render_report_text(report: dict) -> str:
    lines = []
    for record in report["checks"]:
        status = "PASS" if record["pass"] else "FAIL"
        line = f"{status}  {record['name']}"
        if record.get("dimensions"):
            dims = ", ".join(f"{k}={v}" for k, v in sorted(record["dimensions"].items()))
            line += f"  [{dims}]"
        lines.append(line)
        if not record["pass"] and record.get("witness"):
            lines.append(f"      witness: {json.dumps(record['witness'], sort_keys=True)}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"
