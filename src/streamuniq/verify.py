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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, WindowCollapseError
from .grids import RadialGrid, check_r0
from .picard import (PicardDiagnostics, Trajectory, _require_valid, _weighted, check_psi1,
                     picard_solve, residual, weighted_norm)
from .rk import RKDiagnostics, StepControl, rk_solve
from .vorticity import HypothesisReport, VorticityModel, validate_hypotheses

# ln(r2/r0) must stay strictly below 1; shave one part in 1e9 off the cap
_LOG_CAP_MARGIN = 1.0e-9

BINDING_LOG = "log"
BINDING_QUADRATIC = "quadratic"

# verdict thresholds, compared only where UniquenessReport.checks is built
LOWER_BOUND_TOL = 1.0e-8
CONTRACTION_RATIO_MAX = 0.55
CROSS_METHOD_SUP_MAX = 1.0e-6

# Solved slopes carry errors up to about tol.  A continuation prediction may
# amplify them (sum of |Lagrange weights|) at most this much, else its
# farthest neighbour is dropped: a secant through slopes 1e-12 apart,
# evaluated 0.1 away, would amplify them 2e11-fold.
_PREDICTION_GAIN_MAX = 1.0e4


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the full cross-method certification run.

    window_end_effective is r2, or the earlier of the two trajectories' band
    exits if that comes first; every check reads the window up to it.
    checks holds (name, passed) for lower_bound, contraction (the Picard
    delta ratios and the probe inequality) and cross_method, in that order;
    the verdict is their conjunction.  A failed check is only ever a False
    entry here; no check raises.
    """

    r2: float
    binding_constraint: str
    window_end_effective: float
    lower_bound_margin: float
    contraction_ratio: float
    probe_ratio: float
    cross_method_weighted_sup: float
    deviation_limit_trace: list[tuple[float, float]] = field(repr=False)
    slack_budget: float
    checks: tuple[tuple[str, bool], ...]

    @property
    def verdict(self) -> bool:
        return all(passed for _, passed in self.checks)

    def as_dict(self) -> dict:
        """The scalar fields in declaration order, then the verdict."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("deviation_limit_trace", "checks")}
        out["verdict"] = self.verdict
        return out


@dataclass
class AnalysisResult:
    """Report plus every artifact the certification consumed."""

    report: UniquenessReport
    hypothesis: HypothesisReport
    traj_picard: Trajectory
    traj_rk: Trajectory
    picard_diagnostics: PicardDiagnostics
    rk_diagnostics: RKDiagnostics


def compute_r2(r0: float, psi1: float, holder_C: float) -> tuple[float, str]:
    """Certified window radius r2 = min(log cap, quadratic cap).

    Returns (r2, binding_constraint), where binding_constraint records which
    cap produced r2: "log" for r0*exp(1 - 1e-9), "quadratic" for
    sqrt(r0^2 + sqrt(r0*psi1)/C).
    """
    check_r0(r0)
    if not (np.isfinite(psi1) and psi1 > 0.0):
        raise DomainError("psi1 must be positive; reflect the problem first")
    if not (np.isfinite(holder_C) and holder_C > 0.0):
        raise DomainError("holder_C must be positive")
    log_cap = r0 * math.exp(1.0 - _LOG_CAP_MARGIN)
    quad_cap = math.sqrt(r0 * r0 + math.sqrt(r0 * psi1) / holder_C)
    if quad_cap <= log_cap:
        return quad_cap, BINDING_QUADRATIC
    return log_cap, BINDING_LOG


def _window_stop(grid: RadialGrid, window_end: float) -> int:
    """One past the last node at or left of window_end; the window's
    interior nodes are [1:stop]."""
    iw = grid.index_at(window_end)
    if iw < 1:
        raise WindowCollapseError("certification window contains no interior node; "
                                  "refine the grid near r0")
    return iw + 1


def check_lower_bound(traj: Trajectory, window_end: float) -> float:
    """min over window nodes of sign*psi - r0*|psi1|*ln(r/r0).

    Nonnegative (within discretization) when the solution dominates the
    logarithmic term, which the contraction argument requires.
    """
    stop = _window_stop(traj.grid, window_end)
    a = abs(traj.r0psi1)
    sign = 1.0 if traj.r0psi1 > 0.0 else -1.0
    m = a * traj.grid.log_weights[1:stop]
    return float(np.min(sign * traj.psi[1:stop] - m))


def _paired_deviation(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    if traj_a.grid.nodes.shape != traj_b.grid.nodes.shape or \
            not np.array_equal(traj_a.grid.nodes, traj_b.grid.nodes):
        raise DomainError("trajectory pair must share one grid")
    u0a, u0b = traj_a.r0psi1, traj_b.r0psi1
    if abs(u0a - u0b) > 1.0e-12 * max(abs(u0a), abs(u0b)):
        raise DomainError("trajectory pair must share the initial slope")
    return traj_a.psi - traj_b.psi


def deviation_limit_trace(traj_a: Trajectory, traj_b: Trajectory,
                          window_end: float) -> list[tuple[float, float]]:
    """Sample y(r) = |psi_a - psi_b| / ln(r/r0) on radii halving toward r0.

    Probe targets are r0 + span * 2^-j for j = 0..11 (span measured to the
    window end), snapped to the nearest interior grid node and
    deduplicated.  Returned in decreasing r, i.e. walking toward r0.
    """
    x = _paired_deviation(traj_a, traj_b)
    nodes = traj_a.grid.nodes
    span = window_end - traj_a.r0
    if span <= 0.0:
        raise WindowCollapseError("certification window is empty; refine the grid near r0")
    y = _weighted(x, traj_a.grid)
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
        out.append((float(nodes[i]), float(y[i - 1])))
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
                      window_end: float, slack: float = 0.0) -> tuple[float, bool]:
    """Check y(r) <= (C/sqrt(r0*psi1)) * int_{r0}^{r} tau*y dtau + slack nodewise.

    The integral is the plain trapezoid of tau*y(tau) (y extended by its
    limit 0 at r0).  Returns (ratio, holds): holds is False when any window
    node violates the inequality, and ratio is

        (C/sqrt(r0*psi1)) * max_r int tau*y dtau / max_r y,

    the fraction of the peak weighted deviation the integral side can
    reproduce; the window construction caps it at 1/2 plus discretization.
    A coincident pair (max y = 0) has ratio 0.  The argument assumes the
    lower bound of both trajectories, which check_lower_bound measures;
    a zero initial slope, where the theorem does not apply, raises
    DomainError.
    """
    if slack < 0.0 or not np.isfinite(slack):
        raise DomainError("slack must be a finite nonnegative number")
    check_psi1(traj_a.r0psi1)
    x = _paired_deviation(traj_a, traj_b)
    stop = _window_stop(traj_a.grid, window_end)
    nodes = traj_a.grid.nodes
    y = np.zeros(stop, dtype=np.float64)
    y[1:] = _weighted(x, traj_a.grid, stop)
    g = nodes[:stop] * y
    h = np.diff(nodes[:stop])
    integral = np.concatenate(([0.0], np.cumsum(0.5 * h * (g[1:] + g[:-1]))))
    coeff = model.holder_C / math.sqrt(abs(traj_a.r0psi1))
    bound = coeff * integral + slack
    holds = not np.any(y[1:] > bound[1:])
    y_star = float(y.max())
    if y_star == 0.0:
        return 0.0, holds
    return float(coeff * integral.max() / y_star), holds


def window_restricted_delta_ratios(diagnostics: PicardDiagnostics, grid: RadialGrid,
                                   window_end: float) -> list[float]:
    """Consecutive ratios of weighted fixed-point deltas inside the window.

    Ratios are only formed while the denominator delta sits above 1e-14;
    below that the deltas measure roundoff, not contraction.
    """
    stop = _window_stop(grid, window_end)
    deltas = [float(_weighted(cur[:stop] - prev[:stop], grid, stop).max())
              for prev, cur in zip(diagnostics.iterates, diagnostics.iterates[1:])]
    return [b / a for a, b in zip(deltas, deltas[1:]) if a > 1.0e-14]


def default_r_max(model: VorticityModel, r0: float, psi1: float) -> float:
    """Right endpoint used when none is given: r0 + 1.25*(r2 - r0)."""
    check_psi1(psi1)
    return _r_max_past(r0, compute_r2(r0, abs(psi1), model.holder_C)[0])


def _r_max_past(r0: float, r2: float) -> float:
    return r0 + 1.25 * (r2 - r0)


def _require_grid_end(grid: RadialGrid | None, r_max: float | None) -> None:
    if grid is not None and r_max is not None and grid.r_max != r_max:
        raise DomainError(f"r_max = {r_max!r} does not match the grid, which ends at "
                          f"{grid.r_max!r}")


def run_uniqueness_analysis(model: VorticityModel, r0: float = 1.0, psi1: float = 1.0,
                            r_max: float | None = None, grid: RadialGrid | None = None,
                            picard_tol: float = 1.0e-10, picard_max_iter: int = 60,
                            control: StepControl | None = None) -> AnalysisResult:
    """Solve by both methods on one grid and assemble the uniqueness report.

    The slack budget used by the monotonicity and contraction checks is
    10*(picard_tol + rel_tol) plus a quadrature estimate, taken as three
    times the weighted defect of the RK trajectory under the integral
    operator (the RK solution is quadrature-free, so its weighted defect
    isolates the product-integration error).  Without a grid, one of 2049
    geometric nodes spans [r0, r_max]; a grid given with r_max must end there.
    """
    check_psi1(psi1)
    _require_grid_end(grid, r_max)
    hypothesis = validate_hypotheses(model)
    r2, binding = compute_r2(r0, abs(psi1), model.holder_C)
    if grid is None:
        if r_max is None:
            r_max = _r_max_past(r0, r2)
        grid = RadialGrid.geometric(r0, r_max, 2049)
    control = control or StepControl()

    _require_valid(model, hypothesis)
    traj_p, diag_p = picard_solve(model, r0, psi1, grid, tol=picard_tol,
                                  max_iter=picard_max_iter, allow_unvalidated=True)
    traj_rk, diag_rk = rk_solve(model, r0, psi1, grid.r_max, control=control,
                                output_grid=grid, allow_unvalidated=True)

    window_end = min(r2, min(traj_p.window_end, traj_rk.window_end))

    rk_defect_w = residual(model, traj_rk, weighted=True)
    slack = 10.0 * (picard_tol + control.rel_tol) + 3.0 * rk_defect_w

    margin = min(check_lower_bound(traj_p, window_end), check_lower_bound(traj_rk, window_end))

    ratios = window_restricted_delta_ratios(diag_p, grid, window_end)
    contraction_ratio = max(ratios) if ratios else 0.0

    stop = _window_stop(grid, window_end)
    cross_sup = float(_weighted(traj_p.psi[:stop] - traj_rk.psi[:stop], grid, stop).max())

    probe_ratio, probe_holds = contraction_probe(model, traj_p, traj_rk, window_end,
                                                 slack=slack)
    trace = deviation_limit_trace(traj_p, traj_rk, window_end)

    report = UniquenessReport(
        r2=r2,
        binding_constraint=binding,
        window_end_effective=window_end,
        lower_bound_margin=margin,
        contraction_ratio=contraction_ratio,
        probe_ratio=probe_ratio,
        cross_method_weighted_sup=cross_sup,
        deviation_limit_trace=trace,
        slack_budget=slack,
        checks=(("lower_bound", margin >= -LOWER_BOUND_TOL),
                ("contraction", contraction_ratio <= CONTRACTION_RATIO_MAX and probe_holds),
                ("cross_method", cross_sup <= CROSS_METHOD_SUP_MAX)),
    )
    return AnalysisResult(report=report, hypothesis=hypothesis,
                          traj_picard=traj_p, traj_rk=traj_rk,
                          picard_diagnostics=diag_p, rk_diagnostics=diag_rk)


def continuity_sweep(model: VorticityModel, r0: float, psi1_values,
                     r_max: float | None = None, grid: RadialGrid | None = None,
                     tol: float = 1.0e-10) -> list[tuple[float, float]]:
    """Weighted sup deviation of each run from the first (baseline) psi1.

    Returns [(dpsi1, sup_dev)] for every non-baseline value, in input order;
    without a grid, one of 1025 geometric nodes spans [r0, r_max] and r_max
    defaults to 2*r0; a grid given with r_max must end there.  Continuity of
    the solution map shows up as sup_dev shrinking linearly with |dpsi1|.

    The values are solved in input order, each once: a repeated psi1 reuses
    its solution.  Each new psi1 starts Picard from _continuation_start,
    a prediction through the solved slopes of its sign, instead of the
    logarithmic term; every solve still stops at weighted delta <= tol.
    """
    values = [float(v) for v in psi1_values]
    if len(values) < 2:
        raise DomainError("need a baseline and at least one comparison value")
    for v in values:
        check_psi1(v)
    _require_grid_end(grid, r_max)
    if grid is None:
        grid = RadialGrid.geometric(r0, 2.0 * r0 if r_max is None else r_max, 1025)
    _require_valid(model, validate_hypotheses(model))
    solved: dict[float, np.ndarray] = {}
    for v in values:
        if v not in solved:
            traj, _ = picard_solve(model, r0, v, grid, tol=tol, allow_unvalidated=True,
                                   start=_continuation_start(v, solved))
            solved[v] = traj.psi
    base = solved[values[0]]
    return [(v - values[0], weighted_norm(solved[v] - base, grid)[0]) for v in values[1:]]


def _continuation_start(psi1: float, solved: dict[float, np.ndarray]) -> np.ndarray | None:
    """Predicted psi for psi1 from the solved slopes of the same sign.

    The Lagrange polynomial in psi1 through the (up to) three nearest
    solved slopes, evaluated at psi1: the secant with two, and with one the
    neighbour scaled by psi1/w.  None (a cold start) without a neighbour.
    While the weights sum to more than _PREDICTION_GAIN_MAX in absolute
    value, the farthest neighbour is dropped.  Same-sign neighbours only, so
    the prediction never crosses the psi1 < 0 reflection.  Numerical
    continuation, see Allgower & Georg, Introduction to Numerical
    Continuation Methods (SIAM, 2003).
    """
    near = sorted((w for w in solved if (w > 0.0) == (psi1 > 0.0)),
                  key=lambda w: abs(w - psi1))[:3]
    while len(near) > 1:
        weights = [math.prod((psi1 - x) / (w - x) for x in near if x != w) for w in near]
        if sum(map(abs, weights)) <= _PREDICTION_GAIN_MAX:
            return sum(c * solved[w] for c, w in zip(weights, near))
        near.pop()
    if near:
        return (psi1 / near[0]) * solved[near[0]]
    return None
