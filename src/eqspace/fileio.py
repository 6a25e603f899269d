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

Reading streams a file row by row (_Reader), and each row becomes its
nonzeros at once, each distinct string parsed once per file.  So reading
holds one row and the nonzeros, not the text and every row as strings,
about twice the file.  Each row goes on, as it is decoded, to the
function that builds its matrix: read_space, read_relations and the
product command keep the rows as they are, and the dual command's,
rows._dual_columns, scatters each row into the packed rows of -Rᵀ, so
that command never holds R, nor hom the R of its source space.  The
module loads the matrix and spaces modules only in read_space, and linalg
only in read_relations, so the construct commands compile none of them.

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
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress, repeat, starmap
from operator import is_not
from os import PathLike

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")
_CHUNK = 1 << 14  # characters read from a file at a time
_scan = json.JSONDecoder().raw_decode
_blank = json.decoder.WHITESPACE.match


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


class _Reader:
    """A JSON file read _CHUNK characters at a time and walked left to right.

    The reader walks the top-level object, and the list of rows or of
    structure entries in it, itself; json's C scanner decodes every other
    value whole, each row among them.  Only the unread text is kept.
    Rows become sparse rows as they are read, through one parse memo for
    the whole file, and go at once to the function that builds their list.
    """

    def __init__(self, f):
        self.f, self.text, self.pos, self.done, self.eof = f, "", 0, 0, False
        self.memo: dict[str, int | Fraction] = {}  # nonzeros, of strings parse_rational accepted
        self.zeros: set[str] = set()  # the other strings it accepted

    def _fail(self, msg: object) -> None:
        at = self.done + self.pos
        raise SpaceFormatError(f"{self.f.name}: invalid JSON at character {at}: {msg}")

    def _peek(self, need: int = 1) -> str:
        """Skip whitespace and return the next character, "" at the end of the file.

        Reads on first, a chunk at a time, until need characters are unread.
        """
        while True:
            self.pos = _blank(self.text, self.pos).end()
            if len(self.text) - self.pos >= need or self.eof:
                return self.text[self.pos : self.pos + 1]
            chunk = self.f.read(_CHUNK)
            self.done += self.pos
            self.text, self.pos, self.eof = self.text[self.pos :] + chunk, 0, not chunk

    def _read_past(self, char: str) -> None:
        """Read on until char and a character after it are unread.

        Then a row that char closes is decoded once, not cut short at the end
        of a chunk and decoded again.  Each read at least doubles the unread
        text, so a long row is searched a few times, not once per chunk.
        """
        while not self.eof and not 0 <= self.text.find(char, self.pos) < len(self.text) - 1:
            self._peek(2 * (len(self.text) - self.pos) + 1)

    def _take(self, chars: str) -> str:
        """Step over the next character, which must be one of chars."""
        c = self._peek()
        if not c or c not in chars:
            self._fail(f"expecting one of {chars}")
        self.pos += 1
        return c

    def _value(self) -> object:
        """Decode the next value whole, reading on while the text read may cut it short."""
        self._peek()
        while True:
            try:
                value, end = _scan(self.text, self.pos)
                # A number may go on in text not yet read, and in valid JSON
                # no other value is followed by a character a number has.
                if self.eof or self.text[end : end + 1] not in "+-.0123456789Ee":
                    self.pos = end
                    return value
            except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
                if self.eof:
                    self._fail(getattr(exc, "msg", exc))
            self._peek(2 * (len(self.text) - self.pos))

    def _walk(self, close: str):
        """Yield each key of the object, or None per element of the list, whose bracket is next.

        The caller reads each value; the walk reads the keys and punctuation.
        """
        self.pos += 1  # past the bracket _read saw
        if self._peek() == close:
            self.pos += 1
            return
        while True:
            key = None
            if close == "}":
                key = self._value() if self._peek() == '"' else self._fail("expecting a key")
                self._take(":")
            yield key
            if self._take("," + close) == close:
                return

    def _read(self, spec: object) -> object:
        """The next value, streamed as spec says and otherwise decoded whole.

        A dict spec streams an object and gives the spec of the value at each
        key; a list spec streams a list and gives the spec of its elements; a
        callable spec is given a list of rows.  A value of another shape than
        its spec asks for is decoded whole, for the caller to reject.
        """
        c = self._peek()
        if c == "{" and isinstance(spec, dict):
            return {k: self._read(spec.get(k)) for k in self._walk("}")}
        if c == "[" and isinstance(spec, list):
            return [self._read(spec[0]) for _ in self._walk("]")]
        if c == "[" and callable(spec):
            problems = []
            rows = self._nonzeros(problems)
            built = spec(rows, next(rows, 0))
            return problems[0] if problems else built
        return self._value()

    def _nonzeros(self, problems: list[SpaceFormatError]) -> Iterator:
        """Yield the width of the list of rows that comes next, then each row's nonzeros.

        The first bad row goes into problems and ends what is yielded; the
        rest of the list is still read.
        """
        width = None
        for _ in self._walk("]"):
            self._read_past("]")
            row = self._value()
            if width is None:
                width = len(row) if isinstance(row, list) else 0
                yield width
            if not problems:
                try:
                    yield self._row(row, width)
                except SpaceFormatError as exc:
                    problems.append(exc)

    def _row(self, row: object, width: int) -> dict[int, int | Fraction]:
        """row, a list of width rational strings, as its nonzeros {column: value}.

        A cell that is the "0" object json's scanner makes of every plain
        "0" (CPython shares one-character strings) is a zero; only the other
        cells are looked up or parsed, and those that parse to zero, as "-0"
        or "0/3" do, are dropped.
        """
        if not isinstance(row, list) or len(row) != width:
            raise SpaceFormatError(f"rows must be lists of {width} entries, as long as the first")
        memo, zeros = self.memo, self.zeros
        cols = list(compress(range(width), map(is_not, row, repeat("0"))))
        try:
            return dict(zip(cols, map(memo.__getitem__, map(row.__getitem__, cols))))
        except (KeyError, TypeError):
            for j in cols:
                text = row[j]
                if not isinstance(text, str) or (text not in memo and text not in zeros):
                    value = parse_rational(text)
                    if value:
                        memo[text] = value
                    else:
                        zeros.add(text)
        return {j: memo[row[j]] for j in cols if row[j] not in zeros}


def _load(path: str | PathLike, spec: dict) -> dict:
    """The object a JSON file holds, streamed as spec says (see _Reader._read)."""
    try:
        with open(path, encoding="utf-8") as f:
            reader = _Reader(f)
            data = reader._read(spec)
            if reader._peek():
                reader._fail("extra data")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpaceFormatError(f"{path} must hold a JSON object")
    return data


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
