"""Named check suites shared by the command line and the test harness.

Each suite imports the modules it runs when it runs, so the rigidity suite
loads neither the algebra nor the FRT module, and only random trials load
the sampler.
"""

from __future__ import annotations

from .linalg import Matrix, _kron_sum_apply, kronecker
from .report import VerificationReport
from .spaces import EquippedSpace, coev_column, coev_map, ev_map, ev_row


def coev_kron_identity(V: EquippedSpace) -> VerificationReport:
    """Degree-wise identity (R_n⊗I − I⊗R_nᵀ) · coev_n = 0, factor by factor."""
    d = V.dim
    for n, Rn in V.structure_items():
        size = d**n
        vec = [int(i == j) for i in range(size) for j in range(size)]
        image = list(_kron_sum_apply(Rn, -Rn.transpose(), vec))
        if any(x != 0 for x in image):
            return VerificationReport(
                "coev-kron-identity",
                False,
                witness={"degree": n, "image": image},
            )
    return VerificationReport("coev-kron-identity", True)


def snake_identity(V: EquippedSpace) -> VerificationReport:
    """Both triangle identities of the pairing, as exact matrix equalities."""
    d = V.dim
    ident = Matrix.identity(d)
    ev = ev_row(d)
    coev = coev_column(d)
    on_dual = kronecker(ev, ident) * kronecker(ident, coev)
    on_primal = kronecker(ident, ev) * kronecker(coev, ident)
    if on_dual != ident or on_primal != ident:
        return VerificationReport(
            "snake-identity",
            False,
            witness={
                "on_dual": [list(r) for r in on_dual.cells],
                "on_primal": [list(r) for r in on_primal.cells],
            },
        )
    return VerificationReport("snake-identity", True)


def _tagged(rep: VerificationReport, tag: str) -> VerificationReport:
    return VerificationReport(
        f"{rep.name}[{tag}]", rep.passed, rep.witness, rep.dimensions
    )


def rigidity_suite(V: EquippedSpace, tag: str) -> list[VerificationReport]:
    return [
        _tagged(ev_map(V), tag),
        _tagged(coev_map(V), tag),
        _tagged(coev_kron_identity(V), tag),
        _tagged(snake_identity(V), tag),
    ]


def bialgebra_suite(
    V: EquippedSpace, W: EquippedSpace, U: EquippedSpace
) -> list[VerificationReport]:
    from .frt import (
        check_comult_well_defined,
        coassociativity_check,
        counit_check,
        counit_law_check,
        verify_hom_equals_frt,
    )

    return [
        verify_hom_equals_frt(V, W),
        check_comult_well_defined(V, W, U),
        coassociativity_check(V.dim, W.dim, U.dim, U.dim),
        counit_law_check(V.dim, W.dim),
        _tagged(counit_check(V), "v"),
        _tagged(counit_check(W), "w"),
    ]


def epi_suite(
    V: EquippedSpace, W: EquippedSpace, max_degree: int = 3
) -> list[VerificationReport]:
    from .algebras import check_U_epi
    from .frt import check_manin_epi, corep_delta_check

    return [
        check_manin_epi(V, W),
        check_U_epi(V, W, max_degree),
        corep_delta_check(V, W),
    ]


def suite_checks(
    suite: str,
    V: EquippedSpace,
    W: EquippedSpace,
    U: EquippedSpace | None = None,
    epi_degree: int = 3,
) -> list[VerificationReport]:
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
            out.append(
                VerificationReport(
                    f"trial-{t:03d}/{rep.name}", rep.passed, rep.witness, rep.dimensions
                )
            )
    return out
