"""Epimorphism checks: what the epi suite runs, and only it loads.

They compare the quantum matrix algebra A(R:S) of frt with the algebras
built from the quotients U(V) and U(W): Manin's hom relations must lie in
the FRT relation span, the corepresentation v_i -> sum_j t_i^j ⊗ w_j must
descend to the quotients, and the ideal of U(V⊠W) must lie in the ideal
of the circle product U(V)∘U(W), degree by degree.  The corepresentation
is the comultiplication of V = hom(1, V) through W, so coalgebra checks
it; the circle ideal is tested as coalgebra tests the comultiplication,
by normal forms in a tensor product of two quotient algebras
(``frt._first_outside_tensor``).
"""

from __future__ import annotations

from .algebras import PresentedAlgebra, apply_U
from .coalgebra import check_comult_well_defined
from .frt import _containment_report, _first_outside_tensor, _require_quadratic
from .frt import _tensor_ideal_dim, frt_relations
from .linalg import Subspace, kernel
from .report import VerificationReport
from .spaces import EquippedSpace, boxtimes
from .tensors import phi_table, tau23_table


def corep_delta_check(V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Well-definedness of v_i -> sum_j t_i^j ⊗ w_j on the relation ideal.

    V is hom(1, V), so the map is the comultiplication of A(R:0), 0 the
    unit's structure, through W.  It must send Im R, the relations of
    A(R:0), into rel(R,S)⊗W² + (full)⊗Im S, those of A(R:S)⊗A(S:0) =
    A(R:S)⊗U(W); that is what makes it descend to the quotients.
    """
    rep = check_comult_well_defined(V, EquippedSpace(1), W)
    name = "corepresentation-well-defined"
    return VerificationReport(name, rep.passed, rep.witness, rep.dimensions)


def manin_hom_relations(A: PresentedAlgebra, B: PresentedAlgebra) -> Subspace:
    """Hom relations of quadratic algebras: middle-swap of ann(R_B) ⊗ R_A.

    B plays the source role, A the target role; the annihilator is the
    kernel of the matrix whose rows span B's degree-2 relations.
    """
    for alg in (A, B):
        if any(m != 2 for m in alg.relations):
            raise ValueError("hom relations need quadratic presentations")
    dV, dW = A.gen_dim, B.gen_dim
    rel_a = A.relations.get(2, Subspace.zero(dV * dV))
    rel_b = B.relations.get(2, Subspace.zero(dW * dW))
    ann = kernel(rel_b.basis)
    table = tau23_table(dW, dV)
    rows = [
        {table[j * dV * dV + k]: x * y for j, x in arow.items() for k, y in brow.items()}
        for arow in ann.basis.nonzeros
        for brow in rel_a.basis.nonzeros
    ]
    return Subspace.from_rows((dW * dV) ** 2, rows)


def check_manin_epi(V: EquippedSpace, W: EquippedSpace) -> VerificationReport:
    """Containment of the hom-algebra relations in the quantum matrix span.

    Equivalent to the generator-identity epimorphism from the hom algebra
    of the underlying quotients onto the quantum matrix algebra.
    """
    _require_quadratic(V, W)
    manin = manin_hom_relations(apply_U(V), apply_U(W))
    frt = frt_relations(V, W)
    dims = {"manin": manin.dim, "frt": frt.dim}
    bad = frt.first_outside(manin.basis.nonzeros)
    return _containment_report("manin-relations-in-frt", bad, manin.basis, dims, "vector")


def check_U_epi(V: EquippedSpace, W: EquippedSpace, N: int) -> VerificationReport:
    """Per-degree containment of the product-space ideal in the circle ideal.

    The circle ideal, the ideal of U(V)∘U(W), is the kernel of the algebra
    map T(V⊗W) -> U(V)⊗U(W), so it is two-sided and holds the ideal of the
    quotient of V⊠W exactly when it holds that ideal's generators, the
    basis rows of Im (R⊠S)_n.  A generator x of degree n is in it when
    φ(x) is zero in U(V)_n⊗U(W)_n.  Passing for every n <= N witnesses the
    functorial epimorphism between the two quotients; the reported ideal
    dimensions come from the Hilbert series.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    left = apply_U(boxtimes(V, W))
    A, B = apply_U(V), apply_U(W)
    dims: dict[str, int] = {}
    for n in range(2, N + 1):
        dims[f"product_ideal_{n}"] = left.gen_dim**n - left.graded_dim(n)
        dims[f"circle_ideal_{n}"] = _tensor_ideal_dim(A, B, n)
        rel = left.relations.get(n)
        if rel is None:
            continue
        table = phi_table(A.gen_dim, B.gen_dim, n)
        pushed = ({table[i]: x for i, x in row.items()} for row in rel.basis.nonzeros)
        bad = _first_outside_tensor(A, B, n, pushed)
        if bad is not None:
            name = "product-ideal-in-circle-ideal"
            return _containment_report(name, bad, rel.basis, dims, "vector", degree=n)
    return VerificationReport("product-ideal-in-circle-ideal", True, dimensions=dims)
