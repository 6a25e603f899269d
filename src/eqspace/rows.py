"""The row rules of ⊠ and †, on sparse rows alone.

A matrix here is the sequence of its sparse rows ``{column: entry}``, as
``Matrix.nonzeros`` gives it, so the product, hom and dual commands run
these rules on the rows of their files and load neither the matrix nor
the spaces module.  ``_boxtimes_row`` is the one rule for a row of R⊠S
and ``_dual_columns`` the one builder of -Rᵀ: the commands, the spaces
module and the ev/coev checks in suites all use them.  The tensor index
tables are loaded only to build a product.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import repeat
from sys import byteorder


def _boxtimes_row(rrow: dict, srow: dict, i: int, k: int, inv: Sequence[int], wn: int) -> dict:
    """Nonzeros of row s = φ⁻¹(i,k) of φ⁻¹(Rn⊗I + I⊗Sn)φ.

    Entry ((i,k),(j,l)) of Rn⊗I + I⊗Sn is Rn[i,j]·δ_kl + δ_ij·Sn[k,l], and
    conjugating by the permutation φ relabels both indices through inv, the
    inverse of φ's table.  So the row is row i of Rn, rrow, at the columns
    (j,k) and row k of Sn, srow, at the columns (i,l); they meet only on
    the diagonal (i,k), where the entry is Rn[i,i] + Sn[k,k].
    """
    base = i * wn
    row = {inv[j * wn + k]: x for j, x in rrow.items()}
    row.update({inv[base + l]: y for l, y in srow.items()})
    s = inv[base + k]
    diagonal = rrow.get(i, 0) + srow.get(k, 0)
    if diagonal:
        row[s] = diagonal
    else:
        row.pop(s, None)
    return row


def _boxtimes_rows(Rn: Sequence[dict], Sn: Sequence[dict], dV: int, dW: int, n: int) -> Iterator:
    """The rows of φ⁻¹(Rn⊗I + I⊗Sn)φ in order, each made when it is asked for.

    Rn and Sn are the rows of the degree-n matrices of spaces of
    dimensions dV and dW.  Row s is row (i,k) = divmod(φ[s], dW^n) of
    Rn⊗I + I⊗Sn, relabelled.  The index tables are built at once.
    """
    from .tensors import phi_inverse, phi_table
    inv = phi_inverse(dV, dW, n)
    wn = dW**n
    return (
        _boxtimes_row(Rn[i], Sn[k], i, k, inv, wn)
        for i, k in map(divmod, phi_table(dV, dW, n), repeat(wn))
    )


def _boxtimes_structure(
    dV: int, R: Mapping[int, Sequence[dict]], dW: int, S: Mapping[int, Sequence[dict]]
) -> tuple[int, dict]:
    """The dimension of the product of (dV, R) and (dW, S) and per degree its rows and width.

    R and S give the rows of each degree's matrix; a degree that one of
    them lacks is the zero matrix there.  A row of the product is its
    (column, entry) pairs, made when it is asked for.
    """
    zero = ({},)
    return dV * dW, {
        n: (
            map(dict.items, _boxtimes_rows(R.get(n, zero * dV**n), S.get(n, zero * dW**n), dV, dW, n)),
            (dV * dW) ** n,
        )
        for n in sorted(R.keys() | S.keys())
    }


def _dual_columns(rows: Iterable[dict], width: int) -> tuple[list, int, list]:
    """-Rᵀ, the dual's structure at one degree, for R of these sparse rows and width.

    Row j of -Rᵀ is a bytearray of its nonzeros in ascending i, each the
    pair i, c of native 4-byte unsigned ints, where -R[i,j] is entries[c]
    (see _pairs).  The call gives the rows, their width, the number of rows
    of R, and entries.  One pass reads each row once, as it comes, so the
    file reader never holds R.  Each distinct entry, by value and type, is
    negated once and given one code.  An entry object is looked up by its
    id first, which hashes no Fraction: the reader and boxtimes share one
    object per distinct value.  The call holds each object it keys by id,
    so no id is reused while it runs, even for rows made and dropped one at
    a time.
    """
    cols = [bytearray() for _ in range(width)]
    by_id: dict[int, bytes] = {}
    held: list = []  # every x keyed in by_id
    by_value: dict[tuple, bytes] = {}
    entries: list = []
    i = -1
    for i, row in enumerate(rows):
        at = i.to_bytes(4, byteorder)
        for j, x in row.items():
            code = by_id.get(id(x))
            if code is None:
                key = (x, type(x))  # 2 == Fraction(2) and they hash alike; each keeps its type
                code = by_value.get(key)
                if code is None:
                    code = by_value[key] = len(entries).to_bytes(4, byteorder)
                    entries.append(-x)
                by_id[id(x)] = code
                held.append(x)
            col = cols[j]
            col += at
            col += code
    return cols, i + 1, entries


def _pairs(col: bytearray, entries: list) -> Iterator:
    """The (column, entry) pairs of a row that _dual_columns packs.

    Eight bytes a nonzero take half of two list slots, and a sixth to an
    eighth of what a dict or a list of pairs takes.
    """
    it = iter(memoryview(col).cast("I"))
    return zip(it, map(entries.__getitem__, it))


def _dual_rows(cols: list, entries: list) -> tuple[dict, ...]:
    """The sparse rows of -Rᵀ, from the rows and entries that _dual_columns gives."""
    return tuple(map(dict, map(_pairs, cols, repeat(entries))))
