"""Adaptive embedded Runge-Kutta integration of the radial problem.

The second-order equation is driven as the first-order system

    psi' = u / r,      u' = -r * f(psi),

where u = r * psi' stays constant whenever f vanishes.  The stepper is a
Dormand-Prince 5(4) pair with FSAL, a PI controller (safety 0.9, beta 0.04)
and a quartic dense-output interpolant used to fill the requested output
nodes, so output resolution never constrains step selection.  Each accepted
step fills every output node it covers in one vectorised evaluation of the
interpolant, so the cost per output node is a few array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NonConvergenceError, StepSizeUnderflowError
from .grids import RadialGrid
from .picard import Trajectory, _require_valid, _window_end
from .vorticity import HypothesisReport, VorticityModel


@dataclass(frozen=True)
class StepControl:
    """Adaptive step parameters.  None fields are resolved against the span:
    h_init = 1e-4 * span, h_min = 1e-14 * span, h_max = span.

    abs_tol defaults far below rel_tol because the solution passes through 0
    at r0 and the weighted deviation divides by ln(r/r0) there; a loose
    absolute floor would drown exactly the region the analysis cares about.
    """

    rel_tol: float = 1.0e-10
    abs_tol: float = 1.0e-16
    h_init: float | None = None
    h_min: float | None = None
    h_max: float | None = None

    def resolved(self, span: float) -> tuple[float, float, float]:
        if not (np.isfinite(self.rel_tol) and 0.0 < self.rel_tol < 1.0):
            raise DomainError("rel_tol must lie in (0, 1)")
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError("abs_tol must be positive")
        h_init = 1.0e-4 * span if self.h_init is None else self.h_init
        h_min = 1.0e-14 * span if self.h_min is None else self.h_min
        h_max = span if self.h_max is None else self.h_max
        if not (0.0 < h_min <= h_init <= h_max):
            raise DomainError(
                f"need 0 < h_min <= h_init <= h_max, got ({h_min!r}, {h_init!r}, {h_max!r})")
        return h_init, h_min, h_max


@dataclass(frozen=True)
class RKDiagnostics:
    n_accepted: int
    n_rejected: int
    h_final: float
    rel_tol: float
    abs_tol: float


def rhs(model: VorticityModel, r: float, psi: float, u: float) -> tuple[float, float]:
    """Right-hand side of the first-order system at a single point."""
    if not (np.isfinite(r) and np.isfinite(psi) and np.isfinite(u)):
        raise DomainError("rhs arguments must be finite")
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    return u / r, -r * model.evaluate(psi)


def rk_solve(model: VorticityModel, r0: float, psi1: float, r_max: float,
             control: StepControl | None = None, output_grid: RadialGrid | None = None,
             allow_unvalidated: bool = False,
             validation: HypothesisReport | None = None) -> tuple[Trajectory, RKDiagnostics]:
    """Integrate from (r0, 0, r0*psi1) to r_max, sampling on output_grid.

    The default output grid is 513 uniform nodes.  A supplied grid must start
    exactly at r0 and end exactly at r_max.  Negative psi1 solves the
    reflected problem and negates the result, exactly as the fixed-point
    solver does, so the two methods stay comparable node by node.
    """
    if not (np.isfinite(r0) and r0 >= 1.0):
        raise DomainError(f"r0 must be finite and >= 1, got {r0!r}")
    if not (np.isfinite(psi1) and psi1 != 0.0):
        raise DomainError("psi1 must be finite and nonzero")
    if not (np.isfinite(r_max) and r_max > r0):
        raise DomainError("r_max must exceed r0")
    if output_grid is None:
        output_grid = RadialGrid.uniform(r0, r_max, 513)
    if output_grid.nodes[0] != r0 or output_grid.nodes[-1] != r_max:
        raise DomainError("output grid must span [r0, r_max] exactly")
    control = control or StepControl()
    h_init, h_min, h_max = control.resolved(r_max - r0)
    _require_valid(model, allow_unvalidated, validation)

    reflect = psi1 < 0.0
    u0 = r0 * abs(psi1)
    nodes = output_grid.nodes
    psi_out = np.empty_like(nodes)
    u_out = np.empty_like(nodes)

    n_acc, n_rej, h_last, status, r_at = _kernels.rk_core_python(
        model.evaluate, u0, r_max, control.rel_tol, control.abs_tol,
        h_init, h_min, h_max, nodes, psi_out, u_out)

    if status == _kernels.RK_UNDERFLOW:
        raise StepSizeUnderflowError(
            f"step size fell below h_min = {h_min!r} at r = {r_at!r}", r_at)
    if status == _kernels.RK_BUDGET:
        raise NonConvergenceError(f"step budget exhausted at r = {r_at!r}")
    if status == _kernels.RK_NONFINITE:
        raise NonConvergenceError(f"state turned non-finite at r = {r_at!r}")

    window_end = _window_end(nodes, psi_out, model.delta)
    if reflect:
        psi_out = -psi_out
        u_out = -u_out
    traj = Trajectory(grid=output_grid, psi=psi_out, u=u_out,
                      window_end=window_end, method_tag="rk")
    diag = RKDiagnostics(n_accepted=int(n_acc), n_rejected=int(n_rej), h_final=float(h_last),
                         rel_tol=control.rel_tol, abs_tol=control.abs_tol)
    return traj, diag


def convergence_order_probe(model: VorticityModel, r0: float, psi1: float, r_max: float,
                            rel_tols, allow_unvalidated: bool = False) -> list[tuple[float, float]]:
    """Errors of rk_solve at each tolerance against the tightest run.

    rel_tols must contain at least two distinct values.  Returns
    [(rel_tol, sup_error)] for every tolerance except the tightest, in
    decreasing tolerance order.
    """
    tols = sorted(set(float(t) for t in rel_tols), reverse=True)
    if len(tols) < 2:
        raise DomainError("need at least two distinct tolerances")
    grid = RadialGrid.uniform(r0, r_max, 129)
    runs = {}
    for t in tols:
        ctrl = StepControl(rel_tol=t, abs_tol=t * 1.0e-6)
        traj, _ = rk_solve(model, r0, psi1, r_max, control=ctrl, output_grid=grid,
                           allow_unvalidated=allow_unvalidated)
        runs[t] = traj.psi
    ref = runs[tols[-1]]
    return [(t, float(np.max(np.abs(runs[t] - ref)))) for t in tols[:-1]]
