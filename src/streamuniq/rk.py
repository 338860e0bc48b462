"""Adaptive embedded Runge-Kutta integration of the radial problem.

The second-order equation is driven as the first-order system

    psi' = u / r,      u' = -r * f(psi),

where u = r * psi' stays constant whenever f vanishes.  The stepper is a
Dormand-Prince 5(4) pair with FSAL, a PI controller (safety 0.9, beta 0.04)
and a quartic dense-output interpolant used to fill the requested output
nodes, so output resolution never constrains step selection.  Each accepted
step fills every output node it covers in one vectorised evaluation of the
interpolant, so the cost per output node is a few array operations.

The stepping is ``_kernels.rk_core``, which returns the sampled arrays and
raises the package's solver errors where the integration stalls;
``rk_solve`` checks its inputs and hands the solution for |psi1| to
``picard._signed_trajectory``, the one home of the psi1 < 0 reflection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .grids import RadialGrid
from .picard import Trajectory, _check_start, _require_valid, _signed_trajectory
from .vorticity import VorticityModel, validate_hypotheses


@dataclass(frozen=True)
class StepControl:
    """Error tolerances of the adaptive step.  The step bounds are fixed
    by the span, see ``_kernels.rk_core``.

    abs_tol defaults far below rel_tol because the solution passes through 0
    at r0 and the weighted deviation divides by ln(r/r0) there; a loose
    absolute floor would drown exactly the region the analysis cares about.
    """

    rel_tol: float = 1.0e-10
    abs_tol: float = 1.0e-16


@dataclass(frozen=True)
class RKDiagnostics:
    n_accepted: int
    n_rejected: int
    h_final: float
    rel_tol: float
    abs_tol: float


def rk_solve(model: VorticityModel, r0: float, psi1: float, r_max: float,
             control: StepControl | None = None, output_grid: RadialGrid | None = None,
             allow_unvalidated: bool = False) -> tuple[Trajectory, RKDiagnostics]:
    """Integrate from (r0, 0, r0*psi1) to r_max, sampling on output_grid.

    The default output grid is 513 uniform nodes.  A supplied grid must start
    exactly at r0 and end exactly at r_max.  Negative psi1 solves the
    reflected problem and negates the result, exactly as the fixed-point
    solver does, so the two methods stay comparable node by node.
    """
    _check_start(r0, psi1)
    if not (np.isfinite(r_max) and r_max > r0):
        raise DomainError("r_max must exceed r0")
    if output_grid is None:
        output_grid = RadialGrid.uniform(r0, r_max, 513)
    if output_grid.nodes[0] != r0 or output_grid.nodes[-1] != r_max:
        raise DomainError("output grid must span [r0, r_max] exactly")
    control = control or StepControl()
    if not (np.isfinite(control.rel_tol) and 0.0 < control.rel_tol < 1.0):
        raise DomainError("rel_tol must lie in (0, 1)")
    if not (np.isfinite(control.abs_tol) and control.abs_tol > 0.0):
        raise DomainError("abs_tol must be positive")
    if not allow_unvalidated:
        _require_valid(model, validate_hypotheses(model))

    psi, u, n_acc, n_rej, h_last = _kernels.rk_core_python(
        model.evaluate, r0 * abs(psi1), r_max, control.rel_tol, control.abs_tol,
        output_grid.nodes)
    diag = RKDiagnostics(n_accepted=int(n_acc), n_rejected=int(n_rej), h_final=float(h_last),
                         rel_tol=control.rel_tol, abs_tol=control.abs_tol)
    return _signed_trajectory(model, psi1, output_grid, psi, u, "rk"), diag
