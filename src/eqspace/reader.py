"""A JSON file read a chunk at a time and walked row by row.

The walker behind the file formats of the fileio module: _load streams
the lists of rows of a space or relation file and hands each row, as its
nonzeros, to the function that builds its matrix, so a read holds one row
and the nonzeros, never the text whole.  It raises fileio's
SpaceFormatError and parses with fileio's parse_rational; fileio loads
this module when it first reads a file.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not
from os import PathLike

from .fileio import SpaceFormatError, parse_rational

_CHUNK = 1 << 14  # characters read from a file at a time
_scan = json.JSONDecoder().raw_decode
_blank = json.decoder.WHITESPACE.match


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
