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
elimination whose columns are the word codes of B_{n-1}×V then gives B_n
and the rewrite rules of degree n, the least relation degree included
(the diamond-lemma recursion; Bergman 1978, Polishchuk-Positselski,
Quadratic Algebras, ch. 1).  Leading words of a sum split as
lead(J + H) = lead(J) ⊔ lead(H mod J), so B_n and the normal forms are
exactly those of the canonical echelon basis of I_n in k^(d^n).
I_n is never assembled: containment in it, or (in frt) in a tensor sum of
two such ideals, is a test that the normal form vanishes.

A word's rule is the integer pair (m, nf), m·w = sum of nf[t]·t over
normal words t with m > 0 least, nf holding nonzeros only: the
elimination's canonical integer rows as they stand, or ``_combine``'s sums
over the lcm of their m, so the quotient side makes no Fraction, and the
rows each degree builds go to the elimination core as they are, unchecked.

Degrees and word normal forms are memoized per instance; instances are
intended to be confined to one thread (the caches are not locked).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import gcd

from . import linalg
from .linalg import Subspace, _scaled, column_space
from .matrix import Matrix, Scalar
from .spaces import EquippedSpace

Rule = tuple[int, dict[int, int]]


def _combine(terms: Iterable[tuple[int, Rule, int, int]]) -> Rule:
    """c·nf/m summed over terms (c, (m, nf), a, b), each word t of nf put at a·t + b.

    Returns (M, M·sum), M the lcm of the m, rescaling the sum so far when
    an m does not divide it; the sum holds nonzeros only, and no gcd is taken.
    """
    scale = 1
    acc: dict[int, int] = {}
    for c, (m, nf), a, b in terms:
        if scale % m:
            f = m // gcd(scale, m)
            scale *= f
            acc = {k: v * f for k, v in acc.items()}
        c *= scale // m
        for t, e in nf.items():
            k = a * t + b
            acc[k] = acc.get(k, 0) + c * e
    return scale, {k: v for k, v in acc.items() if v}


class _Degree:
    """Normal words of one degree and the integer rules of the words met.

    Built from the canonical integer rows of an elimination whose columns
    are word codes, and from codes, the ascending codes it runs over: words
    are the codes that lead no row, and the row a·e_p + sum of x·e_w gives
    the rule (a, {w: -x}) of the word p.
    """

    __slots__ = ("words", "normal", "rules")

    def __init__(self, rows: list[dict[int, int]], codes: Iterable[int]):
        pivots = {next(iter(row)): row for row in rows}
        self.words = [w for w in codes if w not in pivots]
        self.normal = set(self.words)
        self.rules: dict[int, Rule] = {
            p: (row[p], {w: -x for w, x in row.items() if w != p}) for p, row in pivots.items()
        }


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
        deg = self._degrees.get(n)
        if deg is not None:
            return deg
        if n < 0:
            raise ValueError("degree must be nonnegative")
        # Degrees are built in order, so the cache holds 0..k and each step
        # finds every lower degree it needs.
        for k in range(len(self._degrees), n + 1):
            self._degrees[k] = _Degree([], (0,)) if k == 0 else self._next_degree(k)
        return self._degrees[n]

    def _next_degree(self, n: int) -> _Degree:
        """B_n and the rules of degree n from those of lower degrees."""
        d = self.gen_dim
        live = sorted(m for m, rel in self.relations.items() if m <= n and rel.dim)
        rows: list[dict[int, int]] = []
        for m in live:
            # Each relation word s splits into its prefix s // d and last letter s % d.
            rel_rows = [
                [(c, *divmod(s, d)) for s, c in _scaled(r)[1].items()]
                for r in self.relations[m].basis.nonzeros
            ]
            prefixes = {u for r in rel_rows for _, u, _ in r}
            for b in self._degree(n - m).words:
                b *= d ** (m - 1)
                nfs = {u: self._word_nf(n - 1, b + u) for u in prefixes}
                rows.extend(_combine((c, nfs[u], d, x) for c, u, x in r)[1] for r in rel_rows)
        # The columns are the words of B_{n-1}×V, ascending as B_{n-1} is.
        codes = (b * d + x for b in self._degree(n - 1).words for x in range(d))
        return _Degree(linalg._rref_rows(rows), codes)

    def _word_nf(self, n: int, w: int) -> Rule:
        """Integer rule of the degree-n word w, memoized: NF(u·x) = NF(NF(u)⊗x).

        Walks down the prefixes of w to the longest one whose rule is known
        (every word of degree <= 1 is normal, and a normal word's rule is
        stored on first use), then rewrites back up one letter at a time,
        dividing each new rule by its gcd.
        """
        d = self.gen_dim
        pending: list[int] = []
        while (rule := (deg := self._degree(n)).rules.get(w)) is None:
            if w in deg.normal:
                rule = deg.rules[w] = (1, {w: 1})
                break
            pending.append(w)
            n, w = n - 1, w // d
        for w in reversed(pending):
            n += 1
            m, nf = rule
            x = w % d
            # Each t·x is a column of degree n, so its rule is known.
            scale, nf = _combine((e, self._word_nf(n, t * d + x), 1, 0) for t, e in nf.items())
            m *= scale
            g = gcd(m, *nf.values())
            rule = self._degrees[n].rules[w] = (m // g, {t: e // g for t, e in nf.items()})
        return rule

    def graded_dim(self, n: int) -> int:
        return len(self._degree(n).words)

    def hilbert(self, max_degree: int) -> list[int]:
        return [self.graded_dim(n) for n in range(max_degree + 1)]


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

