"""Isometry groups of invariant matrix norms, verified at desk scale.

The package materializes the classified isometry groups of unitary-similarity
invariant norms on traceless Hermitian matrices and orthogonal-congruence
invariant norms on real skew-symmetric matrices: it evaluates the norms and
their gradients, builds every group generator as an explicit coordinate map,
decomposes arbitrary isometries into canonical data, estimates isometry-group
Lie-algebra dimensions numerically, and exposes seeded verification suites
through a command-line interface.
"""

from .errors import (
    DegeneratePoint,
    InconclusiveDimension,
    InvalidDimension,
    InvalidNormSpec,
    IsomlabError,
    NotAdjointImage,
    NotHermitian,
    NotInClassifiedForm,
    NotIsometry,
    NotSpecialOrthogonal,
    SpecMismatch,
)
from .matspace import (
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    Basis,
    apply_map,
    basis_for,
    devectorize,
    gell_mann_basis,
    is_element,
    project_traceless,
    random_element,
    skew_basis,
    space_dim,
    vectorize,
)
from .norms import (
    NormSpec,
    c_spectral,
    check_invariance,
    frobenius,
    ky_fan,
    norm_gradient,
    norm_value,
    parse_norm,
    schatten,
)
from .groups import (
    ad_matrix,
    cartan_matrix,
    haar_orthogonal,
    haar_unitary,
    psi_matrix,
    so_adjoint_matrix,
    tau_matrix,
    verify_sigma_normalizes,
)
from .skew import (
    YoulaForm,
    char_poly_skew,
    pfaffian4,
    psi_apply,
    youla_decompose,
)
from .recover import (
    IsometryDecomposition,
    SkewIsometryDecomposition,
    classify_eta_sigma,
    decompose_isometry,
    decompose_skew_isometry,
    orthogonal_sign_distance,
    recover_orthogonal_from_adso,
    recover_unitary_from_ad,
    unitary_phase_distance,
)
from .estimate import (
    DimensionReport,
    PreserverReport,
    RangeSample,
    c_numerical_radius,
    c_numerical_range_sample,
    isometry_algebra_dimension,
    skew_isometry_algebra_dimension,
    verify_preserver_forms,
)

__version__ = "0.1.0"
