"""Exact-arithmetic toolkit for Lie algebra cohomology, multi-moment
maps and distinguished exterior forms."""

from .scalars import FieldError, Scalar, sc
from .exterior import KForm, KVector, contract, hodge_star, volume_form
from .liealg import (
    Derivation,
    JacobiError,
    LeibnizError,
    LieAlgebra,
    SalamonSyntaxError,
    builtin,
    extend_by_derivations,
    grading_derivation,
    parse_salamon,
    structural_report,
)
from .cohomology import betti, ce_differential, d_form, is_trivial, kunneth_check, lie_kernel
from .multimoment import (
    Cocycle,
    PDualElement,
    orbit_stab_condition,
    solve_multimoment,
    solve_multimoments,
    triple_form,
)
from .spectral import (
    IdealSplit,
    abelian_eigen_criterion,
    diagonal_extension,
    hs_page,
    invariant_cohomology,
    search_34_extensions,
    verify_34_structure,
)
from .forms import (
    analyze,
    builtin_form,
    construct_nondegenerate,
    fully_nondeg_admissible,
    holonomy_identities,
    stability_admissible,
    stabilizer_algebra,
    two_form_normal_form,
    weak_nondegenerate,
)

__version__ = "0.1.0"
