"""streamuniq: radial stream-function solvers with uniqueness certification.

The package integrates psi'' + psi'/r + f(psi) = 0 with psi(r0) = 0 and
psi'(r0) = psi1 for square-root-type vorticity laws f, by two independent
routes (fixed-point iteration on the integral reformulation, and an adaptive
embedded Runge-Kutta pair), and certifies local uniqueness of the solution
near r0 by checking the contraction structure of the problem on the computed
trajectories.

The top level exports the Python API that README documents, the type of its
``control=`` argument and the error classes; every other name is imported
from its module (``streamuniq.verify.compute_r2`` and so on).
"""

from .errors import (ConfigError, DomainError, ModelValidationError, NonConvergenceError,
                     StepSizeUnderflowError, StreamuniqError, WindowCollapseError)
from .grids import RadialGrid
from .picard import picard_solve, weighted_norm
from .quadrature import kernel_integral_all, kernel_prefix
from .rk import StepControl, rk_solve
from .verify import continuity_sweep, run_uniqueness_analysis
from .vorticity import VorticityModel, validate_hypotheses

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "ModelValidationError",
    "NonConvergenceError",
    "RadialGrid",
    "StepControl",
    "StepSizeUnderflowError",
    "StreamuniqError",
    "VorticityModel",
    "WindowCollapseError",
    "continuity_sweep",
    "kernel_integral_all",
    "kernel_prefix",
    "picard_solve",
    "rk_solve",
    "run_uniqueness_analysis",
    "validate_hypotheses",
    "weighted_norm",
    "__version__",
]
