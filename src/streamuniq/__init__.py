"""streamuniq: radial stream-function solvers with uniqueness certification.

The package integrates psi'' + psi'/r + f(psi) = 0 with psi(r0) = 0 and
psi'(r0) = psi1 for square-root-type vorticity laws f, by two independent
routes (fixed-point iteration on the integral reformulation, and an adaptive
embedded Runge-Kutta pair), and certifies local uniqueness of the solution
near r0 by checking the contraction structure of the problem on the computed
trajectories.
"""

from .errors import (ConfigError, ContractionViolationError, DomainError,
                     ModelValidationError, NonConvergenceError, StepSizeUnderflowError,
                     StreamuniqError, WindowCollapseError)
from .grids import RadialGrid
from .picard import (PicardDiagnostics, Trajectory, picard_solve, residual, weighted_norm)
from .quadrature import kernel_integral_all, kernel_prefix
from .rk import (RKDiagnostics, StepControl, convergence_order_probe, rk_solve)
from .verify import (AnalysisResult, UniquenessReport, UniquenessWindow, check_lower_bound,
                     compute_r2, continuity_sweep, contraction_probe, deviation_limit_trace,
                     run_uniqueness_analysis, trace_is_monotone,
                     window_restricted_delta_ratios)
from .vorticity import (OSCILLATORY_C2_BOUND, HypothesisReport, VorticityModel,
                        check_sign_condition, estimate_holder_constant, validate_hypotheses,
                        validate_oscillatory_constants, zero_vorticity)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "ConfigError",
    "ContractionViolationError",
    "DomainError",
    "HypothesisReport",
    "ModelValidationError",
    "NonConvergenceError",
    "OSCILLATORY_C2_BOUND",
    "PicardDiagnostics",
    "RKDiagnostics",
    "RadialGrid",
    "StepControl",
    "StepSizeUnderflowError",
    "StreamuniqError",
    "Trajectory",
    "UniquenessReport",
    "UniquenessWindow",
    "VorticityModel",
    "WindowCollapseError",
    "check_lower_bound",
    "check_sign_condition",
    "compute_r2",
    "continuity_sweep",
    "contraction_probe",
    "convergence_order_probe",
    "deviation_limit_trace",
    "estimate_holder_constant",
    "kernel_integral_all",
    "kernel_prefix",
    "picard_solve",
    "residual",
    "rk_solve",
    "run_uniqueness_analysis",
    "trace_is_monotone",
    "validate_hypotheses",
    "validate_oscillatory_constants",
    "weighted_norm",
    "window_restricted_delta_ratios",
    "zero_vorticity",
    "__version__",
]
