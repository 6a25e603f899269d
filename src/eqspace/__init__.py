"""Exact-rational workbench for quantum linear spaces with structure maps.

Constructs monoidal products, duals and internal homs of linear spaces
equipped with graded structure maps, presents the associated quotient
algebras, and verifies quantum matrix algebra identities by exact finite
linear algebra.  The package root exports the documented library API;
helpers are imported from their modules.
"""

from .algebras import (
    DegreeCapExceeded,
    FreeElement,
    PresentedAlgebra,
    apply_U,
    check_U_epi,
    check_algebra_morphism,
    structure_projector,
)
from .frt import (
    check_comult_well_defined,
    check_manin_epi,
    coassociativity_check,
    corep_delta_check,
    counit_check,
    counit_law_check,
    frt_relations,
    frt_relations_conic,
    manin_hom_relations,
    verify_hom_equals_frt,
)
from .linalg import Matrix, Subspace, column_space
from .report import VerificationReport
from .spaces import (
    EquippedSpace,
    boxtimes,
    check_morphism,
    coev_map,
    dagger,
    ev_map,
    hom_space,
    unit_K,
)

__all__ = [
    "DegreeCapExceeded",
    "EquippedSpace",
    "FreeElement",
    "Matrix",
    "PresentedAlgebra",
    "Subspace",
    "VerificationReport",
    "apply_U",
    "boxtimes",
    "check_U_epi",
    "check_algebra_morphism",
    "check_comult_well_defined",
    "check_manin_epi",
    "check_morphism",
    "coassociativity_check",
    "coev_map",
    "column_space",
    "corep_delta_check",
    "counit_check",
    "counit_law_check",
    "dagger",
    "ev_map",
    "frt_relations",
    "frt_relations_conic",
    "hom_space",
    "manin_hom_relations",
    "structure_projector",
    "unit_K",
    "verify_hom_equals_frt",
]
