"""Graded quotient algebras presented by per-degree relation spans.

A presented algebra is the tensor algebra on gen_dim generators modulo
the two-sided ideal generated by the relation subspaces.  Everything is
computed degree by degree on the quotient side with exact linear algebra.
The normal words B_n of degree n are the words that are not leading
words of the canonical echelon basis of the ideal component I_n, and A_n
has them as a basis.  Since

    I_n = I_{n-1}⊗V + sum over relation degrees m of V^{n-m}⊗R_m

and V^{n-m} = span(B_{n-m}) + I_{n-m}, the new part of I_n modulo
I_{n-1}⊗V is spanned by the products b·r with b in B_{n-m} and r a basis
row of R_m, each rewritten word by word as u·x -> NF_{n-1}(u)⊗x.  One
elimination in the coordinates B_{n-1}×V then gives B_n and the rewrite
rules of degree n (the diamond-lemma recursion; Bergman 1978,
Polishchuk-Positselski, Quadratic Algebras, ch. 1).  Leading words of a
sum split as lead(J + H) = lead(J) ⊔ lead(H mod J), so B_n and the normal
forms are exactly those of the canonical echelon basis of I_n in k^(d^n).
I_n is never assembled: containment in it, or (in frt) in a tensor sum of
two such ideals, is a test that the normal form vanishes.

Degrees and word normal forms are memoized per instance; instances are
intended to be confined to one thread (the caches are not locked).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .linalg import Subspace, column_space
from .matrix import Matrix, Scalar, _as_row
from .report import Record
from .spaces import EquippedSpace


class FreeElement(Record):
    """Degree-n element of the free tensor algebra in word coordinates."""

    __slots__ = ("degree", "coords")

    def __init__(self, degree: int, coords: tuple[Scalar, ...]):
        self._set(degree, coords)


class _Degree:
    """Normal words of one degree and the rewrite rules of the other words.

    Built from an echelon basis whose column c stands for the word
    codes[c]: words are the codes of the non-pivot columns, ascending, and
    rewrites maps each pivot word to its normal form, a dict from normal
    words to nonzero coefficients.  Rewrites of further words are added as
    they are met.
    """

    __slots__ = ("words", "index", "rewrites")

    def __init__(self, span: Subspace, codes: Sequence[int]):
        pivots = span.pivot_columns()
        pivot_set = set(pivots)
        self.words = [codes[c] for c in range(len(codes)) if c not in pivot_set]
        self.index = {w: i for i, w in enumerate(self.words)}
        self.rewrites: dict[int, dict[int, Scalar]] = {
            codes[p]: {codes[c]: -x for c, x in row.items() if c != p}
            for p, row in zip(pivots, span.basis.nonzeros)
        }

    def reduce(self, terms: Iterable[tuple[int, Scalar]]) -> dict[int, Scalar]:
        """Normal form of a combination of words that are normal or rewritten."""
        acc: dict[int, Scalar] = {}
        for w, c in terms:
            if w in self.index:
                acc[w] = acc.get(w, 0) + c
            else:
                for t, e in self.rewrites[w].items():
                    acc[t] = acc.get(t, 0) + c * e
        return {w: c for w, c in acc.items() if c != 0}


class PresentedAlgebra:
    """Quotient of the free algebra on gen_dim generators.

    relations maps degree m >= 2 to a Subspace of gen_dim^m.
    """

    def __init__(self, gen_dim: int, relations: Mapping[int, Subspace] | None = None):
        if gen_dim < 1:
            raise ValueError("generator dimension must be at least 1")
        relations = dict(relations or {})
        for m, rel in relations.items():
            if m < 2:
                raise ValueError(f"relation degree {m} out of range (need >= 2)")
            if rel.ambient_dim != gen_dim**m:
                raise ValueError(
                    f"relation at degree {m} must live in dimension {gen_dim ** m}"
                )
        self.gen_dim = gen_dim
        self.relations = relations
        self._degrees: dict[int, _Degree] = {}

    def _degree(self, n: int) -> _Degree:
        if n < 0:
            raise ValueError("degree must be nonnegative")
        deg = self._degrees.get(n)
        if deg is not None:
            return deg
        # Degrees are built in order, so the cache holds 0..k and each step
        # finds every lower degree it needs.
        for k in range(len(self._degrees), n + 1):
            self._degrees[k] = (
                _Degree(Subspace.zero(1), (0,)) if k == 0 else self._next_degree(k)
            )
        return self._degrees[n]

    def _next_degree(self, n: int) -> _Degree:
        """B_n and the rewrite rules of degree n from those of lower degrees."""
        d = self.gen_dim
        live = sorted(m for m, rel in self.relations.items() if m <= n and rel.dim)
        if live == [n]:
            # n is the least relation degree: every word of degree n - 1 is
            # normal, and the rows below would be the canonical rows of R_n.
            return _Degree(self.relations[n], range(d**n))
        prev = self._degree(n - 1)
        codes = [b * d + x for b in prev.words for x in range(d)]
        rows: list[dict[int, Scalar]] = []
        for m in live:
            shift = d**m
            for b in self._degree(n - m).words:
                for r in self.relations[m].basis.nonzeros:
                    row: dict[int, Scalar] = {}
                    for s, c in r.items():
                        u, x = divmod(b * shift + s, d)
                        for t, e in self._word_nf(n - 1, u).items():
                            col = prev.index[t] * d + x
                            row[col] = row.get(col, 0) + c * e
                    rows.append(row)
        return _Degree(Subspace.from_rows(len(codes), rows), codes)

    def _word_nf(self, n: int, w: int) -> dict[int, Scalar]:
        """Normal form of the degree-n word w, memoized: NF(u·x) = NF(NF(u)⊗x).

        Walks down the prefixes of w to the longest one whose normal form is
        known (every word of degree <= 1 is normal), then rewrites back up
        one letter at a time.
        """
        d = self.gen_dim
        pending: list[tuple[_Degree, int]] = []
        while True:
            deg = self._degree(n)
            if w in deg.index:
                nf = {w: 1}
                break
            known = deg.rewrites.get(w)
            if known is not None:
                nf = known
                break
            pending.append((deg, w))
            n, w = n - 1, w // d
        for deg, w in reversed(pending):
            x = w % d
            nf = deg.reduce((b * d + x, c) for b, c in nf.items())
            deg.rewrites[w] = nf
        return nf

    def graded_dim(self, n: int) -> int:
        return len(self._degree(n).words)

    def hilbert(self, max_degree: int) -> list[int]:
        return [self.graded_dim(n) for n in range(max_degree + 1)]

    def normal_form(self, x: FreeElement) -> tuple[Scalar, ...]:
        """Coordinates of x on the complement words, after killing the ideal.

        Linear in x and vanishes exactly on the ideal component.
        """
        n = x.degree
        deg = self._degree(n)
        nf: dict[int, Scalar] = {}
        for w, c in _as_row(x.coords, self.gen_dim**n).items():
            for t, e in self._word_nf(n, w).items():
                nf[t] = nf.get(t, 0) + c * e
        return tuple(nf.get(w, 0) for w in deg.words)


def apply_U(V: EquippedSpace) -> PresentedAlgebra:
    """Quotient of the tensor algebra by the ideal generated by Im R_n."""
    relations = {
        n: column_space(mat) for n, mat in V.structure_items() if n >= 2
    }
    return PresentedAlgebra(V.dim, relations)


def structure_projector(rel: Subspace) -> Matrix:
    """Idempotent matrix with column space exactly rel.

    Column p is the canonical basis vector of rel with pivot p, and the
    other columns are zero: the basis vectors composed with the selection
    of their pivot coordinates.  P² = P holds because the pivot coordinates
    of an echelon basis form an identity block.
    """
    # One allocation: rows without a nonzero share the empty dict.
    rows: list[dict[int, Scalar]] = [{}] * rel.ambient_dim
    for p, row in zip(rel.pivot_columns(), rel.basis.nonzeros):
        for i, x in row.items():
            if not rows[i]:
                rows[i] = {}
            rows[i][p] = x
    return Matrix._trusted(rows, rel.ambient_dim)

