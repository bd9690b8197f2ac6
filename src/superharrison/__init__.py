"""Exact cohomology of supercommutative superalgebras.

The package computes Hochschild cohomology and its graded Harrison
subcomplex for finite-dimensional supercommutative superalgebras over the
rationals, entirely in exact arithmetic, and cross-checks degree 2 against
first-order deformations and square-zero extensions computed from scratch.
"""

from .algebras import (
    DualNumber,
    SuperAlgebra,
    SuperModule,
    ValidationReport,
    Violation,
    exterior_algebra,
    self_module,
    tensor_product,
    truncated_polynomial,
    validate_superalgebra,
    validate_supermodule,
)
from .cochains import (
    Cochain,
    coboundary_scatter,
    cochain_from_entries,
    harrison_space,
    hochschild_coboundary,
    parity_offsets,
    super_shuffle_sum,
)
from .cohomology import (
    CohomologyResult,
    Complex,
    ComplexKind,
    ResourceCeilingError,
    ResourceLimits,
    coboundary_matrix,
    cohomology,
    derivation_space,
)
from .deformations import (
    DeformationReport,
    NotACocycleError,
    SweepReport,
    deformation_classes,
    deformation_iff_cocycle,
    extension_equivalence,
    extension_valid_iff_cocycle,
    first_order_deformation_check,
    is_cocycle,
    square_zero_extension,
)
from .linalg import (
    NotASubspaceError,
    RationalMatrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
    quotient_representatives,
    solve,
)
from .shuffles import (
    Permutation,
    enumerate_shuffles,
    odd_subpermutation,
    sigma_o_sign,
)

__version__ = "0.1.0"
