"""Fixed-point iteration on the integral reformulation of the radial problem.

The initial value problem

    psi'' + psi'/r + f(psi) = 0,   psi(r0) = 0,  psi'(r0) = psi1 != 0

is equivalent to

    psi(r) = r0*psi1*ln(r/r0) - int_{r0}^{r} tau*ln(r/tau)*f(psi(tau)) dtau,

and the iteration starts from the pure logarithmic term, or from a caller's
guess of the solution (a continuation start).  Convergence is
measured in the weighted supremum norm sup |x(r)| / ln(r/r0), the natural
norm for deviations that vanish at r0.  Negative psi1 is handled by solving
the reflected problem (psi -> -psi leaves the builtin laws equivariant) and
negating the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelValidationError, NonConvergenceError, WindowCollapseError
from .grids import RadialGrid, check_r0
from .quadrature import kernel_prefix
from .vorticity import HypothesisReport, VorticityModel, validate_hypotheses


@dataclass
class Trajectory:
    """Solution samples on a grid.

    window_end is the last node radius at which the (sign-normalized) value
    still lies in the admissibility band (0, delta]; it equals r0 when the
    band is left immediately, and r_max when it is never left.  Both solvers
    build their trajectory in _signed_trajectory, which reads the band exit
    before it reflects the solution for psi1 < 0.
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
    if x.shape != grid.nodes.shape:
        raise DomainError("x must match the grid nodes")
    if x[0] != 0.0:
        raise DomainError("weighted norm needs x[0] == 0")
    vals = _weighted(x, grid)
    i = int(np.argmax(vals))  # argmax returns the first maximizer
    return float(vals[i]), float(grid.nodes[i + 1])


def _weighted(x: np.ndarray, grid: RadialGrid, stop: int | None = None) -> np.ndarray:
    """|x_i| / ln(r_i/r0) for the interior nodes 1 <= i < stop (all of them
    by default): the profile whose sup is the weighted norm."""
    return np.abs(x[1:stop]) / grid.log_weights[1:stop]


def _window_end(nodes: np.ndarray, psi: np.ndarray, delta: float) -> float:
    inside = (psi[1:] > 0.0) & (psi[1:] <= delta)
    exits = np.flatnonzero(~inside)
    if exits.size == 0:
        return float(nodes[-1])
    return float(nodes[exits[0]])  # last node still inside is one before the exit


def check_psi1(psi1: float) -> None:
    """The one psi1 rule of both solvers and the certificate: finite and nonzero."""
    if not (np.isfinite(psi1) and psi1 != 0.0):
        raise DomainError("psi1 must be finite and nonzero")


def _check_start(r0: float, psi1: float) -> None:
    check_r0(r0)
    check_psi1(psi1)


def _signed_trajectory(model: VorticityModel, psi1: float, grid: RadialGrid,
                       psi: np.ndarray, u: np.ndarray, method_tag: str) -> Trajectory:
    """The trajectory for psi1 from the solution (psi, u) for |psi1|: the band
    exit is read first, then psi1 < 0 reflects psi -> -psi (exact for odd laws)."""
    window_end = _window_end(grid.nodes, psi, model.delta)
    if psi1 < 0.0:
        psi = -psi
        u = -u
    return Trajectory(grid=grid, psi=psi, u=u, window_end=window_end, method_tag=method_tag)


def _require_valid(model: VorticityModel, report: HypothesisReport) -> None:
    if not report.verdict:
        raise ModelValidationError(
            "model failed hypothesis validation "
            f"(sign_margin={report.sign_margin!r}, holder_sup={report.holder_sup!r}, "
            f"holder_C={model.holder_C!r}); only picard_solve and rk_solve can skip "
            "this check, with allow_unvalidated=True")


def picard_solve(model: VorticityModel, r0: float, psi1: float, grid: RadialGrid,
                 tol: float = 1.0e-10, max_iter: int = 60,
                 allow_unvalidated: bool = False,
                 start: np.ndarray | None = None) -> tuple[Trajectory, PicardDiagnostics]:
    """Iterate the integral operator to the weighted-norm fixed point.

    Parameters
    ----------
    start : array, optional
        A guess of the returned psi on the grid, in the returned sign (the
        solver negates it for psi1 < 0).  It replaces the logarithmic term as
        the first iterate, passes the same band check and is iterates[0];
        the stopping rule is unchanged.

    Raises
    ------
    DomainError
        If start is not a finite array matching the grid nodes.
    WindowCollapseError
        If an iterate, the start included, leaves (0, delta] already at the
        first interior node.
    NonConvergenceError
        If max_iter is exhausted or an iterate turns non-finite; diagnostics
        collected so far ride along on the exception.
    """
    _check_start(r0, psi1)
    if grid.nodes[0] != r0:
        raise DomainError("grid must start exactly at r0")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DomainError("tol must be positive")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != grid.nodes.shape or not np.all(np.isfinite(start)):
            raise DomainError("start must be a finite array matching the grid nodes")
        if psi1 < 0.0:
            start = -start
    if not allow_unvalidated:
        _require_valid(model, validate_hypotheses(model))

    a = r0 * abs(psi1)
    L = grid.log_weights
    m = a * L
    # nothing writes into an iterate, so psi and the record share arrays
    psi = m if start is None else start
    deltas: list[float] = []
    iterates: list[np.ndarray] = [psi]
    diagnostics = PicardDiagnostics(iterations=0, weighted_deltas=deltas,
                                    converged=False, iterates=iterates)

    def _check_band(candidate: np.ndarray) -> None:
        first = candidate[1]
        if not (0.0 < first <= model.delta):
            raise WindowCollapseError(
                f"iterate left (0, {model.delta!r}] at the first interior node r = "
                f"{float(grid.nodes[1])!r} (value {float(first)!r}); refine the grid near r0")

    def _vorticity_prefix(candidate: np.ndarray):
        # kernel_prefix rejects non-finite values; from a diverging iterate
        # that is a solver failure, not a malformed input
        try:
            return kernel_prefix(grid, model.evaluate_grid(candidate))
        except DomainError:
            raise NonConvergenceError("vorticity evaluation turned non-finite",
                                      diagnostics) from None

    _check_band(psi)
    # each iterate is tested for finiteness, so overflow ends in NonConvergenceError
    # without numpy warnings; a decorator's wrapper would keep the caller's start alive
    with np.errstate(all="ignore"):
        # diagnostics.iterations counts the iterates accepted so far, which is
        # what a failure inside iteration k reports
        for k in range(max_iter):
            A, B = _vorticity_prefix(psi)
            psi_next = m - (L * A - B)
            if not np.all(np.isfinite(psi_next)):
                raise NonConvergenceError("iterate turned non-finite", diagnostics)
            _check_band(psi_next)
            d = float(np.max(_weighted(psi_next - psi, grid)))
            deltas.append(d)
            iterates.append(psi_next)
            psi = psi_next
            diagnostics.iterations = k + 1
            if d <= tol:
                break
        else:
            raise NonConvergenceError(
                f"no convergence to {float(tol)!r} within {max_iter} iterations "
                f"(last weighted delta {deltas[-1]!r})", diagnostics)

        A, _ = _vorticity_prefix(psi)
    diagnostics.converged = True
    return _signed_trajectory(model, psi1, grid, psi, a - A, "picard"), diagnostics


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
        return float(np.max(_weighted(defect, grid)))
    return float(np.max(np.abs(defect)))
