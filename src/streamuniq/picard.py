"""Fixed-point iteration on the integral reformulation of the radial problem.

The initial value problem

    psi'' + psi'/r + f(psi) = 0,   psi(r0) = 0,  psi'(r0) = psi1 != 0

is equivalent to

    psi(r) = r0*psi1*ln(r/r0) - int_{r0}^{r} tau*ln(r/tau)*f(psi(tau)) dtau,

and the iteration starts from the pure logarithmic term.  Convergence is
measured in the weighted supremum norm sup |x(r)| / ln(r/r0), the natural
norm for deviations that vanish at r0.  Negative psi1 is handled by solving
the reflected problem (psi -> -psi leaves the builtin laws equivariant) and
negating the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelValidationError, NonConvergenceError, WindowCollapseError
from .grids import RadialGrid
from .quadrature import kernel_prefix
from .vorticity import HypothesisReport, VorticityModel, validate_hypotheses


@dataclass
class Trajectory:
    """Solution samples on a grid.

    window_end is the last node radius at which the (sign-normalized) value
    still lies in the admissibility band (0, delta]; it equals r0 when the
    band is left immediately, and r_max when it is never left.
    """

    grid: RadialGrid
    psi: np.ndarray
    u: np.ndarray
    window_end: float
    method_tag: str

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def r0(self) -> float:
        return self.grid.r0

    @property
    def r0psi1(self) -> float:
        # u(r) = r*psi'(r), so u at the first node is r0*psi1
        return float(self.u[0])


@dataclass
class PicardDiagnostics:
    """Per-iteration convergence record; iterates are kept for the
    contraction analysis downstream."""

    iterations: int
    weighted_deltas: list[float]
    converged: bool
    iterates: list[np.ndarray] = field(default_factory=list, repr=False)


def weighted_norm(x, grid: RadialGrid) -> tuple[float, float]:
    """sup_i |x_i| / ln(r_i/r0) over interior nodes, with its location.

    Requires x[0] == 0 exactly (the weight vanishes at r0).  Ties resolve to
    the leftmost node.  Returns (value, r_at); an all-zero x gives (0, r_1).
    """
    x = np.asarray(x, dtype=np.float64)
    lw = grid.log_weights
    if x.shape != lw.shape:
        raise DomainError("x must match the grid nodes")
    if x[0] != 0.0:
        raise DomainError("weighted norm needs x[0] == 0")
    vals = np.abs(x[1:]) / lw[1:]
    i = int(np.argmax(vals))  # argmax returns the first maximizer
    return float(vals[i]), float(grid.nodes[i + 1])


def _window_end(nodes: np.ndarray, psi: np.ndarray, delta: float) -> float:
    inside = (psi[1:] > 0.0) & (psi[1:] <= delta)
    exits = np.flatnonzero(~inside)
    if exits.size == 0:
        return float(nodes[-1])
    return float(nodes[exits[0]])  # last node still inside is one before the exit


def _require_valid(model: VorticityModel, allow_unvalidated: bool,
                   validation: HypothesisReport | None) -> HypothesisReport | None:
    if allow_unvalidated:
        return validation
    report = validation if validation is not None else validate_hypotheses(model)
    if not report.verdict:
        raise ModelValidationError(
            "model failed hypothesis validation "
            f"(sign_margin={report.sign_margin!r}, holder_sup={report.holder_sup!r}, "
            f"holder_C={model.holder_C!r}); pass allow_unvalidated=True to override")
    return report


def picard_solve(model: VorticityModel, r0: float, psi1: float, grid: RadialGrid,
                 tol: float = 1.0e-10, max_iter: int = 60,
                 allow_unvalidated: bool = False,
                 validation: HypothesisReport | None = None) -> tuple[Trajectory, PicardDiagnostics]:
    """Iterate the integral operator to the weighted-norm fixed point.

    Parameters
    ----------
    validation : HypothesisReport, optional
        A previously computed report; passing it skips re-sampling the model.

    Raises
    ------
    WindowCollapseError
        If an iterate leaves (0, delta] already at the first interior node.
    NonConvergenceError
        If max_iter is exhausted or an iterate turns non-finite; diagnostics
        collected so far ride along on the exception.
    """
    if not (np.isfinite(r0) and r0 >= 1.0):
        raise DomainError(f"r0 must be finite and >= 1, got {r0!r}")
    if not (np.isfinite(psi1) and psi1 != 0.0):
        raise DomainError("psi1 must be finite and nonzero")
    if grid.nodes[0] != r0:
        raise DomainError("grid must start exactly at r0")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DomainError("tol must be positive")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    _require_valid(model, allow_unvalidated, validation)

    reflect = psi1 < 0.0
    a = r0 * abs(psi1)
    L = grid.log_weights
    m = a * L
    psi = m.copy()
    deltas: list[float] = []
    iterates: list[np.ndarray] = [psi.copy()]
    diagnostics = PicardDiagnostics(iterations=0, weighted_deltas=deltas,
                                    converged=False, iterates=iterates)

    def _check_band(candidate: np.ndarray) -> None:
        first = candidate[1]
        if not (0.0 < first <= model.delta):
            raise WindowCollapseError(
                f"iterate left (0, {model.delta!r}] at the first interior node "
                f"r = {grid.nodes[1]!r} (value {first!r}); refine the grid near r0")

    def _finite_vorticity(candidate_values: np.ndarray, k: int) -> None:
        # a diverging iterate can push the law past overflow; that is a
        # solver failure, not a malformed input
        if not np.all(np.isfinite(candidate_values)):
            diagnostics.iterations = k
            raise NonConvergenceError("vorticity evaluation turned non-finite",
                                      diagnostics)

    _check_band(psi)
    converged = False
    for k in range(max_iter):
        values = model.evaluate_grid(psi)
        _finite_vorticity(values, k)
        A, B = kernel_prefix(grid, values)
        psi_next = m - (L * A - B)
        if not np.all(np.isfinite(psi_next)):
            diagnostics.iterations = k
            raise NonConvergenceError("iterate turned non-finite", diagnostics)
        _check_band(psi_next)
        d = float(np.max(np.abs(psi_next[1:] - psi[1:]) / L[1:]))
        deltas.append(d)
        iterates.append(psi_next.copy())
        psi = psi_next
        diagnostics.iterations = k + 1
        if d <= tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"no convergence to {tol!r} within {max_iter} iterations "
            f"(last weighted delta {deltas[-1]!r})", diagnostics)
    diagnostics.converged = True

    values = model.evaluate_grid(psi)
    _finite_vorticity(values, diagnostics.iterations)
    A, _ = kernel_prefix(grid, values)
    u = a - A
    window_end = _window_end(grid.nodes, psi, model.delta)
    if reflect:
        psi = -psi
        u = -u
    traj = Trajectory(grid=grid, psi=psi, u=u, window_end=window_end, method_tag="picard")
    return traj, diagnostics


def residual(model: VorticityModel, traj: Trajectory, weighted: bool = False) -> float:
    """Defect of a trajectory under the integral reformulation.

    With weighted=True the defect is divided by ln(r/r0) before taking the
    supremum, matching the norm the solvers converge in.
    """
    grid = traj.grid
    L = grid.log_weights
    values = model.evaluate_grid(traj.psi)
    A, B = kernel_prefix(grid, values)
    defect = traj.psi - (traj.r0psi1 * L - (L * A - B))
    if weighted:
        return float(np.max(np.abs(defect[1:]) / L[1:]))
    return float(np.max(np.abs(defect)))
