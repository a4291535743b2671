"""Data-driven modal decomposition with certified residuals.

Snapshot matrices go in; Ritz pairs, refined vectors, and data-driven
residual certificates come out.  The pipelines never form or require the
underlying operator; the verify module builds synthetic operators with
known spectra to audit everything end to end.
"""

from .errors import (
    BackendError,
    ConditioningError,
    DataError,
    DmdkitError,
    ShapeError,
)
from .matrixio import load_matrix, store_matrix
from .snapshots import (
    ColumnScaling,
    KrylovCompanion,
    SequentialTrajectory,
    SnapshotPair,
    companion_decomposition,
    odd_even_split,
    scale_columns,
)
from .inner import InnerProduct
from .pod import (
    PodBasis,
    RankPolicy,
    default_epsilon,
    numerical_rank,
    truncated_svd,
    weighted_pod,
)
from .ritz import (
    QrStack,
    RefinedPair,
    RitzDecomposition,
    action_on_basis,
    data_driven_residuals,
    koopman_log_map,
    order_pairs,
    qr_stack,
    rayleigh_from_qr,
    refine_ritz,
    refined_rayleigh_value,
    residuals_from_stack,
    ritz_pairs,
)
from .variants import (
    FbSpectrum,
    SequentialDiagnostic,
    VariantConfig,
    ddmd_rrr,
    ddmd_rrr_auto,
    ddmd_rrr_compressed,
    dmd,
    exact_dmd,
    exact_dmd_sequential_diagnostic,
    fb_dmd_mrf,
    select_pairs,
)
from .weighted import (
    BoundReport,
    two_sided_weighted_dmd,
    weighted_bauer_fike,
    weighted_dmd,
)
from .verify import (
    OracleOperator,
    corrupted_sigma_etas,
    eigen_reference,
    exp_inverse_oracle,
    explicit_residuals,
    invariant_subspace_pair,
    make_m_unitary_oracle,
    make_oracle,
    match_eigenvalues,
    trajectory,
    write_fixture_set,
)

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BoundReport",
    "ColumnScaling",
    "ConditioningError",
    "DataError",
    "DmdkitError",
    "FbSpectrum",
    "InnerProduct",
    "KrylovCompanion",
    "OracleOperator",
    "PodBasis",
    "QrStack",
    "RankPolicy",
    "RefinedPair",
    "RitzDecomposition",
    "SequentialDiagnostic",
    "SequentialTrajectory",
    "ShapeError",
    "SnapshotPair",
    "VariantConfig",
    "action_on_basis",
    "companion_decomposition",
    "corrupted_sigma_etas",
    "data_driven_residuals",
    "ddmd_rrr",
    "ddmd_rrr_auto",
    "ddmd_rrr_compressed",
    "default_epsilon",
    "dmd",
    "eigen_reference",
    "exact_dmd",
    "exact_dmd_sequential_diagnostic",
    "exp_inverse_oracle",
    "explicit_residuals",
    "fb_dmd_mrf",
    "invariant_subspace_pair",
    "koopman_log_map",
    "load_matrix",
    "make_m_unitary_oracle",
    "make_oracle",
    "match_eigenvalues",
    "numerical_rank",
    "odd_even_split",
    "order_pairs",
    "qr_stack",
    "rayleigh_from_qr",
    "refine_ritz",
    "refined_rayleigh_value",
    "residuals_from_stack",
    "ritz_pairs",
    "scale_columns",
    "select_pairs",
    "store_matrix",
    "trajectory",
    "truncated_svd",
    "two_sided_weighted_dmd",
    "weighted_bauer_fike",
    "weighted_dmd",
    "weighted_pod",
    "write_fixture_set",
]
