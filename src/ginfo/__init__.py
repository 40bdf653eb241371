"""Gaussian-state information geometry toolkit.

Covariance matrices of Gaussian quantum states, their symplectic spectra and
uncertainty/separability verdicts, closed-form Fisher information metrics and
affine-invariant distances, a deformed anisotropic-oscillator pipeline, and a
bipartite pair family for studying entanglement generated by phase-space
deformations.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryIndeterminateError,
    DegenerateSpectrumError,
    NormalizationError,
    NumericDomainError,
    SingularMatrixError,
)
from .fisher import (
    FisherMetric,
    NormalFormMetric,
    NormalFormPoint,
    Region,
    RegularizerConfig,
    VolumeEstimate,
    canonical_sqrt_closed,
    fisher_det_two_mode,
    fisher_metric_numeric,
    fisher_metric_two_mode,
    fr_distance,
    fr_distance_explicit,
    normal_form_metric,
    pure_state_det_ratio,
    regularized_volume,
    regularizer_value,
)
from .states import (
    CanonicalTwoModeParams,
    PptResult,
    SimonInvariants,
    TwoModeBounds,
    canonical_two_mode_cvm,
    canonical_two_mode_matrix,
    in_quantum_region,
    in_separable_region,
    partial_transpose,
    ppt_separable,
    simon_invariants,
    two_mode_bounds,
)
from .symplectic import (
    CovarianceMatrix,
    Ordering,
    RsupResult,
    SymplecticForm,
    build_symplectic_form,
    congruence_apply,
    generalized_eigenvalues,
    matrix_sqrt_spd,
    permute_ordering,
    rsup_check,
    symplectic_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
