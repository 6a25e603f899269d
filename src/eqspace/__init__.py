"""Exact-rational workbench for quantum linear spaces with structure maps.

Constructs monoidal products, duals and internal homs of linear spaces
equipped with graded structure maps, presents the associated quotient
algebras, and verifies quantum matrix algebra identities by exact finite
linear algebra.  The package root exports the documented library API;
helpers are imported from their modules.  Each exported name is imported
from its module on first access (PEP 562), so ``import eqspace`` loads no
module that the caller does not use.
"""

from importlib import import_module

_EXPORTS = {
    "algebras": "PresentedAlgebra apply_U structure_projector",
    "coalgebra": "check_comult_well_defined coassociativity_check counit_check counit_law_check",
    "epi": "check_U_epi check_manin_epi corep_delta_check manin_hom_relations",
    "frt": "frt_relations frt_relations_conic verify_hom_equals_frt",
    "linalg": "Subspace column_space",
    "matrix": "Matrix",
    "report": "VerificationReport",
    "spaces": "EquippedSpace boxtimes dagger hom_space",
    "suites": "coev_map ev_map",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
