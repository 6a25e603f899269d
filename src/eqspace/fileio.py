"""File formats: space files and relation-basis files.

All files are JSON and human-diffable.  Space and relation files write
every rational as the string "p/q" (or "p" when the denominator is one) so
no float ever enters the pipeline.  A rational string is a full match of
``[+-]?[0-9]+(/[1-9][0-9]*)?``: ASCII digits only, no surrounding
whitespace.  ``parse_rational`` yields only ints and Fractions, and
``matrix.Matrix`` admits no other entry type, so the one writer,
_write_space, spells an entry as ``str(x)`` without checking it again,
joining the bytes ``report.dumps_canonical`` would give without the JSON
encoder.  Every zero spells "0", so it converts only the nonzero entries,
and each distinct entry object once per file: a structure of many
nonzeros has few entry objects.  It takes each row when it writes it, so
the construct commands make rows one at a time and never hold their
output.

Reading streams a file row by row (reader._Reader, in a module the
first read loads), and each row becomes its nonzeros at once, each
distinct string parsed once per file.  So reading holds one row and the
nonzeros, not the text and every row as strings, about twice the file.
Each row goes on, as it is decoded, to the function that builds its
matrix: read_space, read_relations and the product command keep the rows
as they are, and the dual command's, rows._dual_columns, scatters each
row into the packed rows of -Rᵀ, so that command never holds R, nor hom
the R of its source space.  The module loads the matrix and spaces
modules only in read_space, and linalg only in read_relations, so the
construct commands compile none of them.

A file is accepted or rejected as decoding it whole with json.loads and
then checking it would be, duplicate keys included: the last one wins, so
a problem met in a streamed value is raised only after the whole file has
been read.  A rejection still exits 2.  Only the problem named may differ
when a file has several, as the checks run in another order: a bad row is
found while reading, before the shape of its matrix is checked.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import starmap
from os import PathLike

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class SpaceFormatError(Exception):
    """Input file does not follow the documented schema."""


def parse_rational(text: str) -> int | Fraction:
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


def _int_field(data: dict, key: str, least: int, default: object = None) -> int:
    """data[key] as a JSON integer >= least (a JSON boolean is not one)."""
    value = data.get(key, default)
    if type(value) is not int or value < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise SpaceFormatError(f"'{key}' must be {kind}")
    return value


def _power(dim: int, degree: int, bound: int) -> int | None:
    """dim**degree, or None when it exceeds bound, refusing a huge degree without the power.

    For dim >= 2, dim**degree >= 2**(degree * (dim.bit_length() - 1)), which
    exceeds bound once that exponent reaches bound.bit_length().
    """
    if dim > 1 and degree * (dim.bit_length() - 1) >= bound.bit_length():
        return None
    power = dim**degree
    return power if power <= bound else None


def _kept(rows, width):
    return tuple(rows), width


def _streamed(value: object, message: str) -> tuple:
    """What build made (a tuple: json makes none); raise the error met in it, or message."""
    if not isinstance(value, tuple):
        raise value if isinstance(value, SpaceFormatError) else SpaceFormatError(message)
    return value


def read_space(path: str | PathLike):
    """The EquippedSpace a space file holds."""
    from .matrix import Matrix
    from .spaces import EquippedSpace
    dim, structure = _read_space(path, _kept)
    return EquippedSpace(dim, dict(zip(structure, starmap(Matrix._trusted, structure.values()))))


def _read_space(path, build):
    """The dimension of the space a file holds, and per degree what build makes of its matrix.

    The checks read the number, width and zeros of the rows build keeps,
    which -Rᵀ shares with R, so with rows._dual_columns it rejects what
    read_space rejects: everything EquippedSpace would.
    """
    from .reader import _load
    data = _load(path, {"structure": [{"matrix": build}]})
    dim = _int_field(data, "dim", 1)
    entries = data.get("structure", [])
    if not isinstance(entries, list):
        raise SpaceFormatError("'structure' must be a list")
    structure = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpaceFormatError("structure entries must be objects")
        degree = _int_field(entry, "degree", 1)
        if degree in structure:
            raise SpaceFormatError(f"duplicate degree {degree}")
        message = f"matrix must be a list of {dim}^{degree} rows"
        rows, width, *_ = structure[degree] = _streamed(entry.get("matrix"), message)
        if len(rows) != width or _power(dim, degree, width) != width:
            raise SpaceFormatError(message)
        if degree == 1 and any(rows):
            raise SpaceFormatError("degree-1 structure must be the zero matrix")
    return dim, structure


def write_space(path: str | PathLike, V, note: str | None = None) -> None:
    """Write EquippedSpace V as report.dumps_canonical would, without the JSON encoder."""
    structure = {n: (map(dict.items, m.nonzeros), m.cols) for n, m in V.structure_items()}
    _write_space(path, V.dim, structure, note)


def _write_space(path, dim, structure, note=None):
    """Write the space of dimension dim whose degree-n matrix has structure[n]'s rows and width.

    A row is its (column, nonzero) pairs, taken when it is written.  Each
    entry object is spelled once; the call holds each, so no id is reused.
    """
    note_line = "" if note is None else f'  "generators": {json.dumps(note)},\n'
    spelled: dict[int, str] = {}
    held: list[int | Fraction] = []  # every x keyed in spelled
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{\n  "dim": {dim},\n{note_line}  "structure": [')
        for k, n in enumerate(sorted(structure)):
            rows, width = structure[n]
            f.write(f'{"," if k else ""}\n    {{\n      "degree": {n},\n      "matrix": [')
            zeros = ["0"] * width
            for i, row in enumerate(rows):
                cells = zeros.copy()
                for j, x in row:
                    text = spelled.get(id(x))
                    if text is None:
                        text = spelled[id(x)] = str(x)
                        held.append(x)
                    cells[j] = text
                entries = '",\n          "'.join(cells)
                f.write(f'{"," if i else ""}\n        [\n          "{entries}"\n        ]')
            f.write("\n      ]\n    }")
        f.write("\n  ]\n}\n" if structure else "]\n}\n")


def read_relations(path: str | PathLike) -> tuple:
    """Read a relation-basis file: dim, degree and the spanned Subspace."""
    from .linalg import Subspace
    from .reader import _load
    data = _load(path, {"basis": _kept})
    dim = _int_field(data, "dim", 1)
    degree = _int_field(data, "degree", 2, default=2)
    rows, width = _streamed(data.get("basis"), "'basis' must be a list of vectors")
    ambient = _power(dim, degree, width if rows else sys.maxsize)  # no rows: the index bound
    if rows and ambient != width:
        raise SpaceFormatError(f"basis vectors must have {dim}^{degree} entries")
    if ambient is None:
        raise OverflowError(f"{dim}^{degree} coordinates cannot be indexed")
    return dim, degree, Subspace.from_rows(ambient, rows)
