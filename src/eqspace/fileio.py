"""File formats: space files, relation-basis files and check reports.

All files are JSON and human-diffable.  Space and relation files write
every rational as the string "p/q" (or "p" when the denominator is one) so
no float ever enters the pipeline.  Report serialization is canonical:
checks sorted by name, keys sorted, fixed indentation; identical inputs
give identical bytes.  A report spells a value by what it is, not by its
Python type: an integer (int or integral Fraction) is a JSON number and
any other rational the string "p/q".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .linalg import Matrix, Scalar, Subspace
from .report import VerificationReport
from .spaces import EquippedSpace

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class SpaceFormatError(Exception):
    """Input file does not follow the documented schema."""


def parse_rational(text: str) -> Scalar:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SpaceFormatError(f"not a rational string: {text!r}")
    try:
        value = Fraction(text)
    except ValueError as exc:
        # Digit strings past the interpreter's int-string limit.
        raise SpaceFormatError(f"rational with too many digits ({len(text)})") from exc
    return int(value) if value.denominator == 1 else value


def format_rational(value: Scalar) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _is_int(value: Any) -> bool:
    """True for a JSON integer and False for a JSON boolean (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_from_lists(rows: Any, expected: int) -> Matrix:
    if not isinstance(rows, list) or len(rows) != expected:
        raise SpaceFormatError(f"matrix must be a list of {expected} rows")
    cells = []
    for row in rows:
        if not isinstance(row, list) or len(row) != expected:
            raise SpaceFormatError(f"matrix rows must have {expected} entries")
        cells.append([parse_rational(x) for x in row])
    return Matrix(cells, cols=expected)


def matrix_to_lists(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.cells]


def space_from_dict(data: Any) -> EquippedSpace:
    if not isinstance(data, dict):
        raise SpaceFormatError("space file must hold a JSON object")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise SpaceFormatError("'dim' must be a positive integer")
    entries = data.get("structure", [])
    if not isinstance(entries, list):
        raise SpaceFormatError("'structure' must be a list")
    structure: dict[int, Matrix] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpaceFormatError("structure entries must be objects")
        degree = entry.get("degree")
        if not _is_int(degree) or degree < 1:
            raise SpaceFormatError("'degree' must be a positive integer")
        if degree in structure:
            raise SpaceFormatError(f"duplicate degree {degree}")
        structure[degree] = matrix_from_lists(entry.get("matrix"), dim**degree)
    return EquippedSpace(dim, structure)


def space_to_dict(V: EquippedSpace, note: str | None = None) -> dict:
    data: dict[str, Any] = {
        "dim": V.dim,
        "structure": [
            {"degree": n, "matrix": matrix_to_lists(mat)}
            for n, mat in V.structure_items()
        ],
    }
    if note is not None:
        data["generators"] = note
    return data


def read_space(path: str | Path) -> EquippedSpace:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpaceFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: invalid JSON: {exc}") from exc
    return space_from_dict(data)


def write_space(path: str | Path, V: EquippedSpace, note: str | None = None) -> None:
    Path(path).write_text(dumps_canonical(space_to_dict(V, note)), encoding="utf-8")


def read_relations(path: str | Path) -> tuple[int, int, Subspace]:
    """Read a relation-basis file: dim, degree and the spanned subspace."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SpaceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpaceFormatError("relation file must hold a JSON object")
    dim = data.get("dim")
    degree = data.get("degree", 2)
    if not _is_int(dim) or dim < 1:
        raise SpaceFormatError("'dim' must be a positive integer")
    if not _is_int(degree) or degree < 2:
        raise SpaceFormatError("'degree' must be an integer >= 2")
    basis = data.get("basis")
    if not isinstance(basis, list):
        raise SpaceFormatError("'basis' must be a list of vectors")
    ambient = dim**degree
    rows = []
    for vec in basis:
        if not isinstance(vec, list) or len(vec) != ambient:
            raise SpaceFormatError(f"basis vectors must have {ambient} entries")
        rows.append([parse_rational(x) for x in vec])
    return dim, degree, Subspace.from_rows(ambient, rows)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def report_to_dict(command: Sequence[str], checks: Iterable[VerificationReport]) -> dict:
    records = []
    for rep in sorted(checks, key=lambda r: r.name):
        record: dict[str, Any] = {"name": rep.name, "pass": rep.passed}
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


def dumps_canonical(data: Any) -> str:
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
