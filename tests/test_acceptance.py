"""Acceptance criteria for the certification pipeline.

Each test prints one PASS/FAIL line (run with -s to see them all) and
asserts the same condition, so the suite doubles as a machine-checkable
gate and a human-readable checklist.  Every criterion runs in well under
a minute on a single core.
"""

import math

import numpy as np
import pytest

from streamuniq import (OSCILLATORY_C2_BOUND, ModelValidationError, RadialGrid,
                        StepControl, VorticityModel, continuity_sweep,
                        kernel_integral_all, picard_solve, rk_solve, trace_is_monotone,
                        validate_hypotheses, validate_oscillatory_constants,
                        window_restricted_delta_ratios, zero_vorticity)

SQRT2 = 1.4142135623730951
I_CONST = 0.40342640972002736   # int_1^2 tau*log(2/tau) dtau
I_INV = 0.3068528194400547      # int_1^2 log(2/tau) dtau


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_hypothesis_validation(classical_model, oscillatory_model):
    rep_c = validate_hypotheses(classical_model)
    rep_o = validate_hypotheses(oscillatory_model)
    ok = (rep_c.verdict and rep_o.verdict
          and rep_c.sign_margin > 0.0 and rep_o.sign_margin > 0.0
          and 0.5 <= rep_c.holder_sup <= 1.0 + 1e-9
          and rep_o.holder_sup <= oscillatory_model.holder_C)
    _verdict(1, "hypothesis validation", ok,
             f"classical sup={rep_c.holder_sup:.10f} margin={rep_c.sign_margin:.3e}; "
             f"oscillatory sup={rep_o.holder_sup:.10f} margin={rep_o.sign_margin:.3e}")


def test_criterion_2_constant_chain_gate():
    bound = OSCILLATORY_C2_BOUND

    def accepts(c1, c2):
        try:
            validate_oscillatory_constants(c1, c2)
            return True
        except ModelValidationError:
            return False

    results = [
        accepts(math.sin(0.01), 0.02),
        accepts(math.sin(bound * (1 - 1e-11) / 2), bound * (1 - 1e-11)),
        not accepts(math.sin(bound / 2), bound),
        not accepts(math.sin(bound * (1 - 1e-13) / 2), bound * (1 - 1e-13)),
        not accepts(math.sin(0.015), 0.03),
        not accepts(-0.01, 0.02),
        not accepts(0.0123, 0.02),
    ]
    ok = all(results)
    _verdict(2, "oscillatory constant chain gate", ok,
             f"bound={bound:.17g}, outcomes={results}")


def test_criterion_3_kernel_quadrature():
    grid = RadialGrid.geometric(1.0, 2.0, 4096)
    err = abs(kernel_integral_all(grid, np.ones(grid.n))[-1] - I_CONST)
    errs = []
    for n in (513, 1025):
        g = RadialGrid.uniform(1.0, 2.0, n)
        errs.append(abs(kernel_integral_all(g, 1.0 / g.nodes)[-1] - I_INV))
    order = math.log2(errs[0] / errs[1])
    ok = err <= 1e-10 and order >= 1.9
    _verdict(3, "kernel quadrature accuracy and order", ok,
             f"graded error={err:.3e} (<=1e-10), order={order:.3f} (>=1.9)")


def test_criterion_4_lower_bound(classical_analysis):
    margin = classical_analysis.report.lower_bound_margin
    ok = margin >= -1e-8
    _verdict(4, "solution dominates the log term", ok,
             f"min margin over both methods = {margin:.3e} (>= -1e-8)")


def test_criterion_5_certified_window(classical_analysis):
    rep = classical_analysis.report
    ratios = window_restricted_delta_ratios(
        classical_analysis.picard_diagnostics,
        classical_analysis.traj_picard.grid,
        classical_analysis.window)
    worst = max(ratios) if ratios else 0.0
    ok = (abs(rep.r2 - SQRT2) <= 1e-12
          and rep.binding_constraint == "quadratic"
          and bool(ratios) and worst <= 0.55)
    _verdict(5, "certified window radius and contraction", ok,
             f"r2={rep.r2:.17g} ({rep.binding_constraint}), "
             f"max delta ratio={worst:.3e} (<=0.55)")


def test_criterion_6_cross_method_agreement(classical_analysis):
    rep = classical_analysis.report
    trace = rep.deviation_limit_trace
    ok = (rep.cross_method_weighted_sup <= 1e-6
          and trace_is_monotone(trace, rep.slack_budget)
          and trace[-1][1] <= 1e-6)
    _verdict(6, "independent solvers agree toward r0", ok,
             f"weighted sup={rep.cross_method_weighted_sup:.3e} (<=1e-6), "
             f"innermost={trace[-1][1]:.3e}, slack={rep.slack_budget:.3e}")


def test_criterion_7_reflection_equivariance(classical_model, classical_analysis):
    grid = classical_analysis.traj_picard.grid
    pos_p = classical_analysis.traj_picard
    pos_rk = classical_analysis.traj_rk
    neg_p, _ = picard_solve(classical_model, 1.0, -1.0, grid)
    neg_rk, _ = rk_solve(classical_model, 1.0, -1.0, grid.r_max, output_grid=grid)
    dev_p = float(np.max(np.abs(neg_p.psi + pos_p.psi)))
    dev_rk = float(np.max(np.abs(neg_rk.psi + pos_rk.psi)))
    scale = float(np.max(np.abs(pos_p.psi)))
    ok = dev_p <= 1e-12 * scale and dev_rk <= 1e-12 * scale
    _verdict(7, "reflection equivariance", ok,
             f"picard dev={dev_p:.3e}, rk dev={dev_rk:.3e} "
             f"(<= 1e-12 relative; both solvers)")


def test_criterion_8_continuity_in_initial_slope(classical_model):
    rows = continuity_sweep(classical_model, 1.0, [1.0, 1.001, 1.01])
    sups = [s for _, s in rows]
    ratio = sups[1] / sups[0]
    ok = (len(rows) == 2 and all(s > 0.0 for s in sups)
          and sups[1] > sups[0] and 10.0 / 3.0 <= ratio <= 30.0)
    _verdict(8, "continuity in the initial slope", ok,
             f"sup devs={[f'{s:.4e}' for s in sups]}, ratio={ratio:.3f} "
             f"in [10/3, 30]")


def test_criterion_9_zero_vorticity_closed_form():
    model = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    worst = 0.0
    for r0, psi1 in ((1.0, 1.0), (1.25, -0.8)):
        r_max = r0 + 1.0
        grid = RadialGrid.uniform(r0, r_max, 513)
        exact = r0 * psi1 * grid.log_weights
        traj_p, _ = picard_solve(model, r0, psi1, grid, allow_unvalidated=True)
        traj_rk, _ = rk_solve(model, r0, psi1, r_max,
                              control=StepControl(rel_tol=1e-12),
                              output_grid=grid, allow_unvalidated=True)
        for traj in (traj_p, traj_rk):
            worst = max(worst, float(np.max(np.abs(traj.psi - exact))))
            worst = max(worst, float(np.max(np.abs(traj.u - r0 * psi1))))
    ok = worst <= 1e-10
    _verdict(9, "vanishing law reproduces the log profile", ok,
             f"max deviation over both methods and two ICs = {worst:.3e} (<=1e-10)")
