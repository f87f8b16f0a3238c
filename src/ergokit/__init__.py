"""Simulation and geometric-ergodicity condition checking for multivariate
nonlinear stochastic difference equations X_t = f(X_{t-1}) + g(X_{t-1}) e_t
with locally singular, discontinuous coefficients."""

__version__ = "0.1.0"

from .config import ConfigError, builtin_configs, validate_config
from .ergodicity import (
    VERDICT_FAILED,
    VERDICT_INCONCLUSIVE,
    VERDICT_MET,
    DriftEnvelope,
    ErgodicityReport,
    check_coefexpol,
    check_model,
    drift_gamma,
    empirical_drift_check,
    probe_skeleton_reachability,
    shell_estimate_envelope,
    threshold_envelope,
)
from .models import (
    AffineMap,
    BekkArch,
    GenericModel,
    ThresholdAffine2D,
    bekk_line_normal,
    iterate,
    step,
)
from .noise import Expol2, MomentEstimate, StdGaussian, abs_moment
from .norms import (
    frobenius_norm,
    matrix_col_sum_norm,
    psd_sqrt,
    vector_s_norm,
)
from .simulate import (
    EnsembleSummary,
    SimulationConfig,
    mix64,
    simulate_ensemble,
    simulate_path,
    snapshot_distance,
)

__all__ = [
    "__version__",
    "AffineMap",
    "BekkArch",
    "ConfigError",
    "DriftEnvelope",
    "EnsembleSummary",
    "ErgodicityReport",
    "Expol2",
    "GenericModel",
    "MomentEstimate",
    "SimulationConfig",
    "StdGaussian",
    "ThresholdAffine2D",
    "VERDICT_FAILED",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_MET",
    "abs_moment",
    "bekk_line_normal",
    "builtin_configs",
    "check_coefexpol",
    "check_model",
    "drift_gamma",
    "empirical_drift_check",
    "frobenius_norm",
    "iterate",
    "matrix_col_sum_norm",
    "mix64",
    "probe_skeleton_reachability",
    "psd_sqrt",
    "shell_estimate_envelope",
    "simulate_ensemble",
    "simulate_path",
    "snapshot_distance",
    "step",
    "threshold_envelope",
    "validate_config",
    "vector_s_norm",
]
