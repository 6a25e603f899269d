"""The check outcome type and the canonical report format.

Report serialization is canonical: checks sorted by name, keys sorted,
fixed indentation; identical inputs give identical bytes.  A report spells
a value by what it is, not by its Python type: an integer (int or
integral Fraction) is a JSON number and any other rational the string
"p/q".  The command line imports this module only where it reports, in
verify and in hilbert with --out, so the construct commands and a hilbert
table on stdout never compile it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .matrix import Record


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
