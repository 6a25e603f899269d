"""File formats: space files, relation-basis files and check reports.

All files are JSON and human-diffable.  Space and relation files write
every rational as the string "p/q" (or "p" when the denominator is one) so
no float ever enters the pipeline.  A rational string is a full match of
``[+-]?[0-9]+(/[1-9][0-9]*)?``: ASCII digits only, no surrounding
whitespace.  ``parse_rational`` yields only ints and Fractions, and
``linalg.Matrix`` admits no other entry type, so the writer spells an entry
as ``str(x)`` without checking it again, joining the bytes dumps_canonical
would give without the JSON encoder.  Every zero spells "0", so the writer
converts only the nonzero entries; the reader parses each distinct string
once per file and keeps only the nonzeros.  Report serialization is
canonical: checks sorted by name, keys sorted, fixed indentation; identical
inputs give identical bytes.  A report spells a value by what it is, not by
its Python type: an integer (int or integral Fraction) is a JSON number and
any other rational the string "p/q".
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from os import PathLike

from .linalg import Matrix, Scalar, Subspace
from .report import VerificationReport
from .spaces import EquippedSpace

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class SpaceFormatError(Exception):
    """Input file does not follow the documented schema."""


def parse_rational(text: str) -> Scalar:
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise SpaceFormatError(f"not a rational string: {text!r}")
    try:
        if match.group(1) is None:
            return int(text)
        value = Fraction(text)
    except ValueError as exc:
        # Digit strings past the interpreter's int-string limit.
        raise SpaceFormatError(f"rational with too many digits ({len(text)})") from exc
    return value.numerator if value.denominator == 1 else value


def _rational_rows(rows: list, width: int, what: str) -> list[dict[int, Scalar]]:
    """Parse a JSON list of rows of rational strings, each of width entries, to sparse rows."""
    memo: dict[str, Scalar] = {}  # only strings parse_rational accepted
    nonzero: dict[str, bool] = {}  # a bool's truth test, unlike a Fraction's, runs in C
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise SpaceFormatError(f"{what} must have {width} entries")
        try:
            cols = list(compress(range(width), map(nonzero.__getitem__, row)))
        except (KeyError, TypeError):
            for text in row:
                if not isinstance(text, str) or text not in memo:
                    memo[text] = parse_rational(text)
                    nonzero[text] = memo[text] != 0
            cols = list(compress(range(width), map(nonzero.__getitem__, row)))
        out.append({j: memo[row[j]] for j in cols})
    return out


def _int_field(data: dict, key: str, least: int, default: object = None) -> int:
    """data[key] as a JSON integer >= least (a JSON boolean is not one)."""
    value = data.get(key, default)
    if type(value) is not int or value < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise SpaceFormatError(f"'{key}' must be {kind}")
    return value


def _load_object(path: str | PathLike, what: str) -> dict:
    """Read path and decode it as JSON that must hold an object."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpaceFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpaceFormatError(f"{what} file must hold a JSON object")
    return data


def _is_power(length: int, dim: int, degree: int) -> bool:
    """Whether length == dim**degree, refusing a huge degree without the power.

    For dim >= 2, dim**degree >= 2**(degree * (dim.bit_length() - 1)), which
    exceeds length once that exponent reaches length.bit_length().
    """
    if dim > 1 and degree * (dim.bit_length() - 1) >= length.bit_length():
        return False
    return dim**degree == length


def space_from_dict(data: dict) -> EquippedSpace:
    dim = _int_field(data, "dim", 1)
    entries = data.get("structure", [])
    if not isinstance(entries, list):
        raise SpaceFormatError("'structure' must be a list")
    structure: dict[int, Matrix] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpaceFormatError("structure entries must be objects")
        degree = _int_field(entry, "degree", 1)
        if degree in structure:
            raise SpaceFormatError(f"duplicate degree {degree}")
        rows = entry.get("matrix")
        if not isinstance(rows, list) or not _is_power(len(rows), dim, degree):
            raise SpaceFormatError(f"matrix must be a list of {dim}^{degree} rows")
        size = len(rows)
        structure[degree] = Matrix._trusted(_rational_rows(rows, size, "matrix rows"), size)
    return EquippedSpace(dim, structure)


def read_space(path: str | PathLike) -> EquippedSpace:
    return space_from_dict(_load_object(path, "space"))


def write_space(path: str | PathLike, V: EquippedSpace, note: str | None = None) -> None:
    """Write V as the bytes dumps_canonical gives, streamed without the JSON encoder."""
    note_line = "" if note is None else f'  "generators": {json.dumps(note)},\n'
    items = V.structure_items()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{\n  "dim": {V.dim},\n{note_line}  "structure": [')
        for k, (n, mat) in enumerate(items):
            f.write(f'{"," if k else ""}\n    {{\n      "degree": {n},\n      "matrix": [')
            zeros = ["0"] * mat.cols
            for i, row in enumerate(mat.nonzeros):
                cells = zeros.copy()
                for j, x in row.items():
                    cells[j] = str(x)
                entries = '",\n          "'.join(cells)
                f.write(f'{"," if i else ""}\n        [\n          "{entries}"\n        ]')
            f.write("\n      ]\n    }")
        f.write("\n  ]\n}\n" if items else "]\n}\n")


def read_relations(path: str | PathLike) -> tuple[int, int, Subspace]:
    """Read a relation-basis file: dim, degree and the spanned subspace."""
    data = _load_object(path, "relation")
    dim = _int_field(data, "dim", 1)
    degree = _int_field(data, "degree", 2, default=2)
    basis = data.get("basis")
    if not isinstance(basis, list):
        raise SpaceFormatError("'basis' must be a list of vectors")
    if basis and not (isinstance(basis[0], list) and _is_power(len(basis[0]), dim, degree)):
        raise SpaceFormatError(f"basis vectors must have {dim}^{degree} entries")
    ambient = dim**degree
    return dim, degree, Subspace.from_rows(
        ambient, _rational_rows(basis, ambient, "basis vectors")
    )


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
