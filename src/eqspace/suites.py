"""Named check suites shared by the command line and the test harness.

The rigidity arrows live beside the suite that runs them: ev and coev,
each checked as a sum of pairing rows of a product structure, with the
witness that the intertwining check l^{⊗n}·R_n = S_n·l^{⊗n} gives on the
built product, and the snake identities by contracting the pairing's
indices (tests keep that check and the Kronecker products as references).
The other suites import their modules when they run, so the rigidity
suite loads no elimination, algebra or FRT module, and only random trials
the sampler.
"""

from __future__ import annotations

from .matrix import Matrix, Scalar
from .report import VerificationReport
from .rows import _boxtimes_row
from .spaces import EquippedSpace, _dual
from .tensors import phi_inverse


def _pairing_rows_sum(Rn: Matrix, Sn: Matrix, d: int, n: int) -> dict[int, Scalar]:
    """Nonzeros of the sum of the rows (J,J) of Rn⊠Sn, J over the d^n words.

    That is the pairing row, 1 at each (J,J) through φ, times Rn⊠Sn; only
    d^n of its (d²)^n rows are built.
    """
    inv = phi_inverse(d, d, n)
    wn = d**n
    acc: dict[int, Scalar] = {}
    for J, (rrow, srow) in enumerate(zip(Rn.nonzeros, Sn.nonzeros)):
        for c, x in _boxtimes_row(rrow, srow, J, J, inv, wn).items():
            acc[c] = acc[c] + x if c in acc else x
    return {c: x for c, x in acc.items() if x}


def ev_map(V: EquippedSpace) -> VerificationReport:
    """Check that evaluation dagger(V) ⊠ V -> unit is a morphism.

    Reports what the intertwining check of ev gives on the built product:
    the row ev^{⊗n}·(R†⊠R)_n is the sum of the pairing rows of (R†⊠R)_n,
    with R†_n = -R_nᵀ, and its first nonzero column is the witness.  A
    failure is a bug, never bad input: the pairing intertwines any
    structure with zero.
    """
    for n, Rn in V.structure_items():
        row = _pairing_rows_sum(_dual(Rn.nonzeros, Rn.cols), Rn, V.dim, n)
        if row:
            col = min(row)
            witness = {"degree": n, "column": col, "difference": [row[col]]}
            return VerificationReport("ev-morphism", False, witness=witness)
    return VerificationReport("ev-morphism", True)


def coev_map(V: EquippedSpace) -> VerificationReport:
    """Check that coevaluation unit -> V ⊠ dagger(V) is a morphism, as ev_map does.

    The column (R⊠R†)_n·coev^{⊗n} is the sum of the pairing rows of its
    transpose, (Rᵀ⊠R†ᵀ)_n, and R†ᵀ = -R is the dual's structure of Rᵀ.
    """
    d = V.dim
    for n, Rn in V.structure_items():
        Rt = Rn.transpose()
        image = _pairing_rows_sum(Rt, _dual(Rt.nonzeros, Rt.cols), d, n)
        if image:
            difference = [-image.get(c, 0) for c in range(d ** (2 * n))]
            witness = {"degree": n, "column": 0, "difference": difference}
            return VerificationReport("coev-morphism", False, witness=witness)
    return VerificationReport("coev-morphism", True)


def coev_kron_identity(V: EquippedSpace) -> VerificationReport:
    """Degree-wise identity (R_n⊗I − I⊗R_nᵀ) · coev_n = 0, factor by factor.

    The image is the sum of the pairing rows of R_nᵀ⊠(−R_n) at degree 1 on
    V^{⊗n}, where φ is the identity.
    """
    d = V.dim
    for n, Rn in V.structure_items():
        size = d**n
        image = _pairing_rows_sum(Rn.transpose(), -Rn, size, 1)
        if image:
            dense = [image.get(c, 0) for c in range(size * size)]
            witness = {"degree": n, "image": dense}
            return VerificationReport("coev-kron-identity", False, witness=witness)
    return VerificationReport("coev-kron-identity", True)


def _zigzags(ev: list[int], coev: list[int], d: int) -> tuple[list[list[int]], ...]:
    """(ev⊗I)(I⊗coev) and (I⊗ev)(coev⊗I) of flat d² pairing vectors, d rows each."""
    ks = range(d)
    on_dual = [[sum(ev[c * d + i] * coev[i * d + k] for i in ks) for c in ks] for k in ks]
    on_primal = [[sum(coev[k * d + i] * ev[i * d + c] for i in ks) for c in ks] for k in ks]
    return on_dual, on_primal


def snake_identity(V: EquippedSpace) -> VerificationReport:
    """Both triangle identities of the pairing δ(a, b), contracted index by index."""
    d = V.dim
    pair = [int(a == b) for a in range(d) for b in range(d)]
    on_dual, on_primal = _zigzags(pair, pair, d)
    ident = [pair[k * d : k * d + d] for k in range(d)]
    if on_dual != ident or on_primal != ident:
        witness = {"on_dual": on_dual, "on_primal": on_primal}
        return VerificationReport("snake-identity", False, witness=witness)
    return VerificationReport("snake-identity", True)


def _renamed(rep: VerificationReport, name: str) -> VerificationReport:
    return VerificationReport(name, rep.passed, rep.witness, rep.dimensions)


def _tagged(rep: VerificationReport, tag: str) -> VerificationReport:
    return _renamed(rep, f"{rep.name}[{tag}]")


def rigidity_suite(V: EquippedSpace, tag: str) -> list[VerificationReport]:
    checks = (ev_map, coev_map, coev_kron_identity, snake_identity)
    return [_tagged(check(V), tag) for check in checks]


def bialgebra_suite(
    V: EquippedSpace, W: EquippedSpace, U: EquippedSpace
) -> list[VerificationReport]:
    from . import coalgebra, frt

    return [
        frt.verify_hom_equals_frt(V, W),
        coalgebra.check_comult_well_defined(V, W, U),
        coalgebra.coassociativity_check(V.dim, W.dim, U.dim, U.dim),
        coalgebra.counit_law_check(V.dim, W.dim),
        _tagged(coalgebra.counit_check(V), "v"),
        _tagged(coalgebra.counit_check(W), "w"),
    ]


def epi_suite(
    V: EquippedSpace, W: EquippedSpace, max_degree: int = 3
) -> list[VerificationReport]:
    from .epi import check_U_epi, check_manin_epi, corep_delta_check

    return [
        check_manin_epi(V, W),
        check_U_epi(V, W, max_degree),
        corep_delta_check(V, W),
    ]


SUITES = ("bialgebra", "rigidity", "epi", "all")


def _require_suite(suite: str) -> None:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")


def suite_checks(
    suite: str,
    V: EquippedSpace,
    W: EquippedSpace,
    U: EquippedSpace | None = None,
    epi_degree: int = 3,
) -> list[VerificationReport]:
    _require_suite(suite)
    checks: list[VerificationReport] = []
    if suite in ("rigidity", "all"):
        checks.extend(rigidity_suite(V, "v"))
        checks.extend(rigidity_suite(W, "w"))
    if suite in ("bialgebra", "all"):
        if U is None:
            raise ValueError("the bialgebra suite needs a middle space")
        checks.extend(bialgebra_suite(V, W, U))
    if suite in ("epi", "all"):
        checks.extend(epi_suite(V, W, epi_degree))
    return checks


def randomized_checks(
    suite: str,
    V: EquippedSpace,
    W: EquippedSpace,
    U: EquippedSpace | None,
    seed: int,
    trials: int,
    epi_degree: int = 3,
) -> list[VerificationReport]:
    """Re-run the suite on random structures drawn at the input shapes."""
    _require_suite(suite)
    import random

    from .sampling import random_equipped

    rng = random.Random(seed)

    def shape(X: EquippedSpace) -> tuple[int, ...]:
        # Degree-1 entries are zero by invariant; redraws skip them.
        return tuple(n for n in X.support if n >= 2) or (2,)

    out: list[VerificationReport] = []
    for t in range(trials):
        draws = {
            "v": random_equipped(rng, V.dim, shape(V)),
            "w": random_equipped(rng, W.dim, shape(W)),
        }
        if U is not None:
            draws["u"] = random_equipped(rng, U.dim, shape(U))
        for rep in suite_checks(suite, draws["v"], draws["w"], draws.get("u"), epi_degree):
            out.append(_renamed(rep, f"trial-{t:03d}/{rep.name}"))
    return out
