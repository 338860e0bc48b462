"""Numerical certification of local uniqueness near r0.

The certificate rests on four measurable facts about the normalized problem
(psi1 > 0; negative psi1 is reflected first):

1. Lower bound: inside the admissibility window the solution dominates the
   pure logarithmic term, psi(r) >= r0*psi1*ln(r/r0).
2. Window geometry: the radius r2 keeps both ln(r2/r0) < 1 and
   (C/sqrt(r0*psi1)) * (r2^2 - r0^2)/2 <= 1/2, so the square-root-weighted
   difference bound turns the integral operator into a contraction with
   factor at most 1/2 on [r0, r2].
3. Contraction: weighted deviations y(r) = |x(r)| / ln(r/r0) of any two
   candidate trajectories obey y(r) <= (C/sqrt(r0*psi1)) * int tau*y dtau
   up to discretization slack, and consecutive fixed-point deltas shrink
   geometrically.
4. Vanishing deviation: y tends to 0 as r decreases to r0, which rules out a
   nonzero deviation surviving the contraction argument.

Everything here is expressed as checks over computed trajectories; nothing
depends on which solver produced them beyond a shared grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractionViolationError, DomainError
from .grids import RadialGrid
from .picard import (PicardDiagnostics, Trajectory, picard_solve, residual, weighted_norm)
from .rk import RKDiagnostics, StepControl, rk_solve
from .vorticity import HypothesisReport, VorticityModel, validate_hypotheses

# ln(r2/r0) must stay strictly below 1; shave one part in 1e9 off the cap
_LOG_CAP_MARGIN = 1.0e-9

BINDING_LOG = "log"
BINDING_QUADRATIC = "quadratic"

# verdict thresholds; cli.cmd_verify prints one check per threshold
LOWER_BOUND_TOL = 1.0e-8
CONTRACTION_RATIO_MAX = 0.55
CROSS_METHOD_SUP_MAX = 1.0e-6


@dataclass(frozen=True)
class UniquenessWindow:
    """Radius up to which the contraction argument is certified.

    binding_constraint records which cap produced r2: "log" for
    r0*exp(1 - 1e-9), "quadratic" for sqrt(r0^2 + sqrt(r0*psi1)/C).
    window_end_effective additionally respects where computed trajectories
    leave the admissibility band.
    """

    r2: float
    binding_constraint: str
    window_end_effective: float

    def clipped(self, window_end: float) -> "UniquenessWindow":
        return replace(self, window_end_effective=min(self.window_end_effective, window_end))


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the full cross-method certification run."""

    r2: float
    binding_constraint: str
    window_end_effective: float
    lower_bound_margin: float
    contraction_ratio: float
    probe_ratio: float
    cross_method_weighted_sup: float
    deviation_limit_trace: list[tuple[float, float]] = field(repr=False)
    slack_budget: float
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "r2": self.r2,
            "binding_constraint": self.binding_constraint,
            "window_end_effective": self.window_end_effective,
            "lower_bound_margin": self.lower_bound_margin,
            "contraction_ratio": self.contraction_ratio,
            "probe_ratio": self.probe_ratio,
            "cross_method_weighted_sup": self.cross_method_weighted_sup,
            "slack_budget": self.slack_budget,
            "verdict": self.verdict,
        }


@dataclass
class AnalysisResult:
    """Report plus every artifact the certification consumed."""

    report: UniquenessReport
    window: UniquenessWindow
    hypothesis: HypothesisReport
    traj_picard: Trajectory
    traj_rk: Trajectory
    picard_diagnostics: PicardDiagnostics
    rk_diagnostics: RKDiagnostics


def compute_r2(r0: float, psi1: float, holder_C: float) -> UniquenessWindow:
    """Certified window radius r2 = min(log cap, quadratic cap)."""
    if not (np.isfinite(r0) and r0 >= 1.0):
        raise DomainError(f"r0 must be finite and >= 1, got {r0!r}")
    if not (np.isfinite(psi1) and psi1 > 0.0):
        raise DomainError("psi1 must be positive; reflect the problem first")
    if not (np.isfinite(holder_C) and holder_C > 0.0):
        raise DomainError("holder_C must be positive")
    log_cap = r0 * math.exp(1.0 - _LOG_CAP_MARGIN)
    quad_cap = math.sqrt(r0 * r0 + math.sqrt(r0 * psi1) / holder_C)
    if quad_cap <= log_cap:
        return UniquenessWindow(r2=quad_cap, binding_constraint=BINDING_QUADRATIC,
                                window_end_effective=quad_cap)
    return UniquenessWindow(r2=log_cap, binding_constraint=BINDING_LOG,
                            window_end_effective=log_cap)


def _window_slice(grid: RadialGrid, window: UniquenessWindow) -> slice:
    iw = grid.index_at(window.window_end_effective)
    if iw < 1:
        raise DomainError("certification window contains no interior node")
    return slice(1, iw + 1)


def check_lower_bound(traj: Trajectory, window: UniquenessWindow) -> float:
    """min over window nodes of sign*psi - r0*|psi1|*ln(r/r0).

    Nonnegative (within discretization) when the solution dominates the
    logarithmic term, which the contraction argument requires.
    """
    sl = _window_slice(traj.grid, window)
    a = abs(traj.r0psi1)
    sign = 1.0 if traj.r0psi1 > 0.0 else -1.0
    m = a * traj.grid.log_weights[sl]
    return float(np.min(sign * traj.psi[sl] - m))


def _paired_deviation(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    if traj_a.grid.nodes.shape != traj_b.grid.nodes.shape or \
            not np.array_equal(traj_a.grid.nodes, traj_b.grid.nodes):
        raise DomainError("trajectory pair must share one grid")
    u0a, u0b = traj_a.r0psi1, traj_b.r0psi1
    if abs(u0a - u0b) > 1.0e-12 * max(abs(u0a), abs(u0b)):
        raise DomainError("trajectory pair must share the initial slope")
    return traj_a.psi - traj_b.psi


def deviation_limit_trace(traj_a: Trajectory, traj_b: Trajectory,
                          window: UniquenessWindow) -> list[tuple[float, float]]:
    """Sample y(r) = |psi_a - psi_b| / ln(r/r0) on radii halving toward r0.

    Probe targets are r0 + span * 2^-j for j = 0..11 (span measured to the
    effective window end), snapped to the nearest interior grid node and
    deduplicated.  Returned in decreasing r, i.e. walking toward r0.
    """
    x = _paired_deviation(traj_a, traj_b)
    nodes = traj_a.grid.nodes
    lw = traj_a.grid.log_weights
    span = window.window_end_effective - traj_a.r0
    if span <= 0.0:
        raise DomainError("certification window is empty")
    out: list[tuple[float, float]] = []
    seen = set()
    for j in range(12):
        target = traj_a.r0 + span * 0.5 ** j
        i = int(np.searchsorted(nodes, target))
        if i >= nodes.size:
            i = nodes.size - 1
        if i > 1 and target - nodes[i - 1] <= nodes[i] - target:
            i -= 1
        i = max(i, 1)
        if i in seen:
            continue
        seen.add(i)
        out.append((float(nodes[i]), float(abs(x[i]) / lw[i])))
    return out


def trace_is_monotone(trace: list[tuple[float, float]], slack: float) -> bool:
    """True when y never grows while r decreases, up to additive slack."""
    for (r_hi, y_hi), (r_lo, y_lo) in zip(trace, trace[1:]):
        if r_lo >= r_hi:
            raise DomainError("trace must be ordered by decreasing r")
        if y_lo > y_hi + slack:
            return False
    return True


def contraction_probe(model: VorticityModel, traj_a: Trajectory, traj_b: Trajectory,
                      window: UniquenessWindow, slack: float = 0.0) -> float:
    """Check y(r) <= (C/sqrt(r0*psi1)) * int_{r0}^{r} tau*y dtau + slack nodewise.

    The integral is the plain trapezoid of tau*y(tau) (y extended by its
    limit 0 at r0).  Raises ContractionViolationError at the first violating
    node.  Returns the achieved ratio

        (C/sqrt(r0*psi1)) * max_r int tau*y dtau / max_r y,

    the fraction of the peak weighted deviation the integral side can
    reproduce; the window construction caps it at 1/2 plus discretization.
    A coincident pair (max y = 0) returns 0.
    """
    if slack < 0.0 or not np.isfinite(slack):
        raise DomainError("slack must be a finite nonnegative number")
    pre_a = check_lower_bound(traj_a, window)
    pre_b = check_lower_bound(traj_b, window)
    floor = -(LOWER_BOUND_TOL + slack)
    if pre_a < floor or pre_b < floor:
        raise DomainError(
            f"lower-bound precondition violated (margins {pre_a!r}, {pre_b!r}); "
            "the contraction argument does not apply")
    x = _paired_deviation(traj_a, traj_b)
    sl = _window_slice(traj_a.grid, window)
    nodes = traj_a.grid.nodes
    lw = traj_a.grid.log_weights
    stop = sl.stop
    y = np.zeros(stop, dtype=np.float64)
    y[1:] = np.abs(x[1:stop]) / lw[1:stop]
    g = nodes[:stop] * y
    h = np.diff(nodes[:stop])
    integral = np.concatenate(([0.0], np.cumsum(0.5 * h * (g[1:] + g[:-1]))))
    coeff = model.holder_C / math.sqrt(abs(traj_a.r0psi1))
    bound = coeff * integral + slack
    bad = np.flatnonzero(y[1:] > bound[1:])
    if bad.size:
        i = int(bad[0]) + 1
        raise ContractionViolationError(
            f"weighted deviation {y[i]!r} exceeds contraction bound {bound[i]!r} "
            f"at r = {nodes[i]!r}", float(nodes[i]), float(y[i] - bound[i]))
    y_star = float(y.max())
    if y_star == 0.0:
        return 0.0
    return float(coeff * integral.max() / y_star)


def window_restricted_delta_ratios(diagnostics: PicardDiagnostics, grid: RadialGrid,
                                   window: UniquenessWindow) -> list[float]:
    """Consecutive ratios of weighted fixed-point deltas inside the window.

    Ratios are only formed while the denominator delta sits above 1e-14;
    below that the deltas measure roundoff, not contraction.
    """
    sl = _window_slice(grid, window)
    lw = grid.log_weights
    deltas = []
    for prev, cur in zip(diagnostics.iterates, diagnostics.iterates[1:]):
        d = np.abs(cur[sl] - prev[sl]) / lw[sl]
        deltas.append(float(d.max()))
    return [b / a for a, b in zip(deltas, deltas[1:]) if a > 1.0e-14]


def default_r_max(model: VorticityModel, r0: float, psi1: float) -> float:
    """Right endpoint used when none is given: r0 + 1.25*(r2 - r0)."""
    if not (np.isfinite(psi1) and psi1 != 0.0):
        raise DomainError("psi1 must be finite and nonzero")
    r2 = compute_r2(r0, abs(psi1), model.holder_C).r2
    return r0 + 1.25 * (r2 - r0)


def run_uniqueness_analysis(model: VorticityModel, r0: float = 1.0, psi1: float = 1.0,
                            r_max: float | None = None, grid: RadialGrid | None = None,
                            picard_tol: float = 1.0e-10, picard_max_iter: int = 60,
                            control: StepControl | None = None) -> AnalysisResult:
    """Solve by both methods on one grid and assemble the uniqueness report.

    The slack budget used by the monotonicity and contraction checks is
    10*(picard_tol + rel_tol) plus a quadrature estimate, taken as three
    times the weighted defect of the RK trajectory under the integral
    operator (the RK solution is quadrature-free, so its weighted defect
    isolates the product-integration error).
    """
    if not (np.isfinite(psi1) and psi1 != 0.0):
        raise DomainError("psi1 must be finite and nonzero")
    hypothesis = validate_hypotheses(model)
    window0 = compute_r2(r0, abs(psi1), model.holder_C)
    if r_max is None:
        r_max = default_r_max(model, r0, psi1)
    if grid is None:
        grid = RadialGrid.geometric(r0, r_max, 2049)
    control = control or StepControl()

    traj_p, diag_p = picard_solve(model, r0, psi1, grid, tol=picard_tol,
                                  max_iter=picard_max_iter, validation=hypothesis)
    traj_rk, diag_rk = rk_solve(model, r0, psi1, grid.r_max, control=control,
                                output_grid=grid, validation=hypothesis)

    window = window0.clipped(min(traj_p.window_end, traj_rk.window_end))

    rk_defect_w = residual(model, traj_rk, weighted=True)
    slack = 10.0 * (picard_tol + control.rel_tol) + 3.0 * rk_defect_w

    margin = min(check_lower_bound(traj_p, window), check_lower_bound(traj_rk, window))

    ratios = window_restricted_delta_ratios(diag_p, grid, window)
    contraction_ratio = max(ratios) if ratios else 0.0

    sl = _window_slice(grid, window)
    dev = np.abs(traj_p.psi[sl] - traj_rk.psi[sl]) / grid.log_weights[sl]
    cross_sup = float(dev.max())

    probe_ratio = contraction_probe(model, traj_p, traj_rk, window, slack=slack)
    trace = deviation_limit_trace(traj_p, traj_rk, window)

    verdict = (margin >= -LOWER_BOUND_TOL and contraction_ratio <= CONTRACTION_RATIO_MAX
               and cross_sup <= CROSS_METHOD_SUP_MAX)
    report = UniquenessReport(
        r2=window.r2,
        binding_constraint=window.binding_constraint,
        window_end_effective=window.window_end_effective,
        lower_bound_margin=margin,
        contraction_ratio=contraction_ratio,
        probe_ratio=probe_ratio,
        cross_method_weighted_sup=cross_sup,
        deviation_limit_trace=trace,
        slack_budget=slack,
        verdict=verdict,
    )
    return AnalysisResult(report=report, window=window, hypothesis=hypothesis,
                          traj_picard=traj_p, traj_rk=traj_rk,
                          picard_diagnostics=diag_p, rk_diagnostics=diag_rk)


def continuity_sweep(model: VorticityModel, r0: float, psi1_values,
                     r_max: float | None = None, grid: RadialGrid | None = None,
                     tol: float = 1.0e-10) -> list[tuple[float, float]]:
    """Weighted sup deviation of each run from the first (baseline) psi1.

    Returns [(dpsi1, sup_dev)] for every non-baseline value, in input order;
    r_max defaults to 2*r0.  Continuity of the solution map shows up as
    sup_dev shrinking linearly with |dpsi1|.
    """
    values = [float(v) for v in psi1_values]
    if len(values) < 2:
        raise DomainError("need a baseline and at least one comparison value")
    if grid is None:
        grid = RadialGrid.geometric(r0, 2.0 * r0 if r_max is None else r_max, 1025)
    hypothesis = validate_hypotheses(model)
    trajs = []
    for v in values:
        traj, _ = picard_solve(model, r0, v, grid, tol=tol, validation=hypothesis)
        trajs.append(traj)
    base = trajs[0]
    out = []
    for v, traj in zip(values[1:], trajs[1:]):
        sup, _ = weighted_norm(traj.psi - base.psi, grid)
        out.append((v - values[0], sup))
    return out
