import numpy as np
import pytest

import streamuniq.cli
import streamuniq.picard
import streamuniq.rk
import streamuniq.verify
from streamuniq import (DomainError, ModelValidationError, RadialGrid, VorticityModel,
                        WindowCollapseError, continuity_sweep, picard_solve,
                        run_uniqueness_analysis, validate_hypotheses, weighted_norm)
from streamuniq.cli import main
from streamuniq.picard import Trajectory
from streamuniq.verify import (LOWER_BOUND_TOL, check_lower_bound, compute_r2,
                               contraction_probe, default_r_max, deviation_limit_trace,
                               trace_is_monotone, window_restricted_delta_ratios)
from streamuniq.vorticity import estimate_holder_constant, zero_vorticity

SQRT2 = 1.4142135623730951


@pytest.mark.parametrize("r0,psi1,C,r2,binding", [
    (1.0, 1.0, 1.0, SQRT2, "quadratic"),
    (2.0, 0.5, 1.0, 2.23606797749979, "quadratic"),
    (1.0, 1.0, 0.01, 2.7182818257407635, "log"),
])
def test_compute_r2(r0, psi1, C, r2, binding):
    got_r2, got_binding = compute_r2(r0, psi1, C)
    np.testing.assert_allclose(got_r2, r2, rtol=0, atol=1e-12)
    assert got_binding == binding


def test_compute_r2_rejects_bad_arguments():
    with pytest.raises(DomainError):
        compute_r2(0.5, 1.0, 1.0)
    with pytest.raises(DomainError, match="reflect"):
        compute_r2(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        compute_r2(1.0, 1.0, 0.0)


def test_window_end_reaches_r2(classical_model):
    # psi1 = 0.1 keeps both trajectories inside (0, delta] past r2, so the
    # window ends at r2 itself (TestClassicalAnalysis pins an earlier end)
    res = run_uniqueness_analysis(classical_model, psi1=0.1)
    rep = res.report
    assert res.traj_picard.window_end > rep.r2
    assert res.traj_rk.window_end > rep.r2
    assert rep.window_end_effective == rep.r2
    np.testing.assert_allclose(rep.r2, np.sqrt(1.0 + np.sqrt(0.1)), rtol=1e-12)
    assert rep.verdict


class TestClassicalAnalysis:
    """Shared full-pipeline run on the classical law with all defaults."""

    def test_verdict_and_window(self, classical_analysis):
        rep = classical_analysis.report
        assert rep.verdict
        np.testing.assert_allclose(rep.r2, SQRT2, rtol=0, atol=1e-12)
        assert rep.binding_constraint == "quadratic"
        np.testing.assert_allclose(rep.window_end_effective, 1.2745419959561006,
                                   rtol=1e-12)

    def test_lower_bound_margin(self, classical_analysis):
        # the law is negative on (0, delta], so the correction is positive
        assert classical_analysis.report.lower_bound_margin >= 0.0
        assert classical_analysis.report.lower_bound_margin < 1e-12

    def test_contraction_ratios(self, classical_analysis):
        rep = classical_analysis.report
        assert 0.0 < rep.contraction_ratio <= 0.55
        np.testing.assert_allclose(rep.contraction_ratio, 0.0016042409170348765,
                                   rtol=1e-6)
        assert 0.0 < rep.probe_ratio <= 0.5
        np.testing.assert_allclose(rep.probe_ratio, 0.12492393056750328, rtol=1e-4)

    def test_cross_method_agreement(self, classical_analysis):
        rep = classical_analysis.report
        np.testing.assert_allclose(rep.cross_method_weighted_sup,
                                   3.432096477810642e-08, rtol=1e-6)
        assert rep.cross_method_weighted_sup <= 1e-6
        assert rep.cross_method_weighted_sup <= rep.slack_budget

    def test_trace_shape(self, classical_analysis):
        rep = classical_analysis.report
        trace = rep.deviation_limit_trace
        assert len(trace) == 12
        radii = [r for r, _ in trace]
        assert radii == sorted(radii, reverse=True)
        assert trace_is_monotone(trace, rep.slack_budget)
        # the innermost probe sits at the solver noise floor, far below
        # the certification threshold
        assert trace[-1][1] <= 1e-6

    def test_slack_budget_composition(self, classical_analysis):
        rep = classical_analysis.report
        # 10*(picard_tol + rel_tol) = 2e-9 plus three weighted RK defects
        assert rep.slack_budget >= 2e-9
        np.testing.assert_allclose(rep.slack_budget, 2.6288987775486377e-07,
                                   rtol=1e-3)

    def test_delta_ratios_certify_contraction(self, classical_analysis):
        ratios = window_restricted_delta_ratios(
            classical_analysis.picard_diagnostics,
            classical_analysis.traj_picard.grid,
            classical_analysis.report.window_end_effective)
        assert ratios
        assert max(ratios) <= 0.55

    def test_checks_are_the_readme_list(self, classical_analysis):
        # verify prints hypothesis.checks, then report.checks, in this order
        res = classical_analysis
        names = [name for name, _ in res.hypothesis.checks + res.report.checks]
        assert names == ["sign_condition", "holder_bound", "lower_bound",
                         "contraction", "cross_method"]
        assert all(passed for _, passed in res.report.checks)

    def test_as_dict_roundtrip(self, classical_analysis):
        d = classical_analysis.report.as_dict()
        assert d["verdict"] is True
        assert d["r2"] == classical_analysis.report.r2
        assert "deviation_limit_trace" not in d

    def test_artifacts_are_consistent(self, classical_analysis):
        res = classical_analysis
        assert res.traj_picard.grid is res.traj_rk.grid
        assert res.traj_picard.method_tag == "picard"
        assert res.traj_rk.method_tag == "rk"
        assert res.hypothesis.verdict
        assert res.picard_diagnostics.converged
        assert res.rk_diagnostics.n_accepted > 0
        np.testing.assert_allclose(res.traj_picard.grid.r_max,
                                   1.0 + 1.25 * (SQRT2 - 1.0), rtol=1e-12)


def test_oscillatory_analysis(oscillatory_model):
    rep = run_uniqueness_analysis(oscillatory_model).report
    assert rep.verdict
    np.testing.assert_allclose(rep.r2, 1.4115792267394565, rtol=1e-12)
    assert rep.binding_constraint == "quadratic"
    assert rep.cross_method_weighted_sup <= 1e-6


def test_negative_slope_analysis(classical_model):
    res = run_uniqueness_analysis(classical_model, psi1=-1.0)
    assert res.report.verdict
    np.testing.assert_allclose(res.report.r2, SQRT2, rtol=0, atol=1e-12)
    assert res.traj_picard.psi[-1] < 0.0
    assert res.traj_rk.psi[-1] < 0.0


def _toy_pair(alpha=0.0, shape=None, n=4097):
    """Trajectory pair on [1, 2] with deviation alpha * L * shape(r)."""
    grid = RadialGrid.uniform(1.0, 2.0, n)
    L = grid.log_weights
    psi_a = 0.3 * L
    shape_vals = np.ones(n) if shape is None else shape(grid.nodes)
    psi_b = psi_a + alpha * L * shape_vals
    u = np.full(n, 0.3)
    ta = Trajectory(grid=grid, psi=psi_a, u=u, window_end=2.0, method_tag="picard")
    tb = Trajectory(grid=grid, psi=psi_b, u=u.copy(), window_end=2.0, method_tag="rk")
    return ta, tb


def test_check_lower_bound_exact_cases():
    ta, _ = _toy_pair()
    # psi = 0.3*L with slope u0 = 0.3 sits exactly on the logarithmic bound
    assert check_lower_bound(ta, 2.0) == 0.0
    low = Trajectory(grid=ta.grid, psi=0.99 * ta.psi, u=ta.u, window_end=2.0,
                     method_tag="picard")
    assert check_lower_bound(low, 2.0) < 0.0


def test_deviation_trace_synthetic_oracle():
    # deviation alpha*L*(r-1) gives weighted value alpha*(r-1) exactly
    alpha = 1e-3
    ta, tb = _toy_pair(alpha=alpha, shape=lambda r: r - 1.0)
    trace = deviation_limit_trace(ta, tb, 2.0)
    assert len(trace) == 12
    for r, y in trace:
        np.testing.assert_allclose(y, alpha * (r - 1.0), rtol=1e-10)
    assert trace_is_monotone(trace, 0.0)


def test_deviation_trace_drops_repeated_nodes():
    # on 9 nodes the 12 halving targets snap to only 4 distinct radii
    grid = RadialGrid.geometric(1.0, 1.3, 9)
    L = grid.log_weights
    u = np.full(grid.n, 0.3)
    ta = Trajectory(grid=grid, psi=0.3 * L, u=u, window_end=1.3, method_tag="picard")
    tb = Trajectory(grid=grid, psi=0.3 * L + 1e-3 * L * (grid.nodes - 1.0), u=u.copy(),
                    window_end=1.3, method_tag="rk")
    radii = [r for r, _ in deviation_limit_trace(ta, tb, 1.3)]
    assert len(radii) == 4
    assert all(hi > lo for hi, lo in zip(radii, radii[1:]))


def test_deviation_trace_clamps_to_the_last_node():
    # a window end past the grid snaps the first target to the last node
    ta, tb = _toy_pair(alpha=1e-3, shape=lambda r: r - 1.0, n=33)
    trace = deviation_limit_trace(ta, tb, 3.0)
    r, y = trace[0]
    assert r == ta.nodes[-1]
    np.testing.assert_allclose(y, 1e-3 * (r - 1.0), rtol=1e-10)


def test_trace_monotonicity_flags_growth():
    # deviation growing toward r0
    ta, tb = _toy_pair(alpha=1e-3, shape=lambda r: 2.0 - r)
    trace = deviation_limit_trace(ta, tb, 2.0)
    assert not trace_is_monotone(trace, 0.0)
    assert trace_is_monotone(trace, 1e-3)
    with pytest.raises(DomainError):
        trace_is_monotone(list(reversed(trace)), 0.0)


def test_pair_must_share_grid_and_slope():
    ta, tb = _toy_pair(alpha=1e-3)
    other = RadialGrid.uniform(1.0, 2.0, 33)
    foreign = Trajectory(grid=other, psi=0.3 * other.log_weights,
                         u=np.full(33, 0.3), window_end=2.0, method_tag="rk")
    with pytest.raises(DomainError, match="share one grid"):
        deviation_limit_trace(ta, foreign, 2.0)
    tilted = Trajectory(grid=ta.grid, psi=tb.psi, u=tb.u * 2.0, window_end=2.0,
                        method_tag="rk")
    with pytest.raises(DomainError, match="initial slope"):
        deviation_limit_trace(ta, tilted, 2.0)


def test_contraction_probe_flags_constant_deviation():
    # y(r) = alpha cannot satisfy y <= coeff * int tau*y near r0, where the
    # integral vanishes; the first interior node must violate
    ta, tb = _toy_pair(alpha=1e-6)
    model = VorticityModel.classical()
    ratio, holds = contraction_probe(model, ta, tb, 2.0, slack=0.0)
    assert holds is False
    # a window holding only the first interior node already fails
    assert contraction_probe(model, ta, tb, ta.nodes[1], slack=0.0)[1] is False
    # enough slack absorbs the whole deviation scale; the ratio ignores slack
    assert contraction_probe(model, ta, tb, 2.0, slack=1e-5) == (ratio, True)
    assert ratio > 0.0


def test_contraction_probe_coincident_pair():
    ta, tb = _toy_pair(alpha=0.0)
    assert contraction_probe(VorticityModel.classical(), ta, tb, 2.0) == (0.0, True)


def test_window_without_interior_node_collapses():
    ta, tb = _toy_pair(alpha=0.0)
    with pytest.raises(WindowCollapseError, match="refine the grid"):
        check_lower_bound(ta, ta.r0)
    with pytest.raises(WindowCollapseError, match="refine the grid"):
        deviation_limit_trace(ta, tb, ta.r0)


def test_contraction_probe_guards():
    ta, tb = _toy_pair(alpha=0.0)
    model = VorticityModel.classical()
    with pytest.raises(DomainError, match="slack"):
        contraction_probe(model, ta, tb, 2.0, slack=-1.0)
    # a pair below the logarithmic term is the lower_bound check's to fail;
    # the probe only measures the inequality
    low = Trajectory(grid=ta.grid, psi=0.9 * ta.psi, u=ta.u, window_end=2.0,
                     method_tag="picard")
    assert check_lower_bound(low, 2.0) < -LOWER_BOUND_TOL
    assert contraction_probe(model, low, low, 2.0) == (0.0, True)


def test_contraction_probe_refuses_a_zero_slope():
    # psi1 = 0 has the two solutions 0 and about (r - r0)^4/144, so the
    # theorem does not apply; the pair is refused before coeff = C/sqrt(0)
    grid = RadialGrid.geometric(1.0, 1.3, 65)

    def flat_start(psi, tag):
        return Trajectory(grid=grid, psi=psi, u=np.zeros(grid.n), window_end=1.3,
                          method_tag=tag)

    zero = np.zeros(grid.n)
    branch = (grid.nodes - 1.0) ** 4 / 144.0
    for other in (zero, branch):
        with pytest.raises(DomainError, match="psi1 must be finite and nonzero"):
            contraction_probe(VorticityModel.classical(), flat_start(zero, "picard"),
                              flat_start(other, "rk"), 1.3)


def test_continuity_sweep_small():
    model = VorticityModel.classical()
    grid = RadialGrid.geometric(1.0, 1.4, 257)
    out = continuity_sweep(model, 1.0, [1.0, 1.001], r_max=1.4, grid=grid)
    assert len(out) == 1
    dpsi1, sup = out[0]
    np.testing.assert_allclose(dpsi1, 1e-3, rtol=1e-10)
    # the solution map is Lipschitz in psi1 with constant near one here
    np.testing.assert_allclose(sup, 1.0081807800335402e-03, rtol=1e-5)
    with pytest.raises(DomainError):
        continuity_sweep(model, 1.0, [1.0])


def _cold_rows(model, r0, values, grid):
    # the sweep's rows from independent cold solves, one per value
    psi = [picard_solve(model, r0, v, grid)[0].psi for v in values]
    return [(v - values[0], weighted_norm(p - psi[0], grid)[0])
            for v, p in zip(values[1:], psi[1:])]


def test_continuity_sweep_keeps_input_order_and_matches_cold_solves(classical_model):
    values = [1.0, -0.5, 2.0, 1.0, 0.5, -0.5, 1.5]
    grid = RadialGrid.geometric(1.0, 1.5, 4097)
    rows = continuity_sweep(classical_model, 1.0, values, grid=grid)
    assert [d for d, _ in rows] == [v - 1.0 for v in values[1:]]
    # the repeated baseline reuses its solution
    assert rows[2][1] == 0.0
    for (_, sup), (_, cold) in zip(rows, _cold_rows(classical_model, 1.0, values, grid)):
        np.testing.assert_allclose(sup, cold, rtol=1e-6)


def test_continuity_sweep_survives_near_duplicate_slopes(classical_model):
    # a secant through 1 and 1 + 1e-12 would amplify their solver errors
    # 2e11-fold toward 1.1 and start outside the band
    values = [1.0, 1.0 + 1e-12, 1.1, 1.0 + 1e-14, 2.0, 1.05]
    grid = RadialGrid.geometric(1.0, 1.5, 4097)
    rows = continuity_sweep(classical_model, 1.0, values, grid=grid)
    for (_, sup), (_, cold) in zip(rows, _cold_rows(classical_model, 1.0, values, grid)):
        np.testing.assert_allclose(sup, cold, rtol=1e-6, atol=1e-12)


def test_continuity_sweep_continuation_saves_picard_iterations(classical_model, monkeypatch):
    # sweep-fine's shape: a baseline and 16 geometric relative steps
    values = [1.0] + [1.0 + e for e in np.geomspace(1e-4, 1e-1, 16)]
    grid = RadialGrid.geometric(1.0, 1.5, 16385)
    cold = sum(picard_solve(classical_model, 1.0, v, grid)[1].iterations for v in values)
    counted = []

    def counting(*args, **kwargs):
        traj, diag = picard_solve(*args, **kwargs)
        counted.append(diag.iterations)
        return traj, diag

    monkeypatch.setattr(streamuniq.verify, "picard_solve", counting)
    continuity_sweep(classical_model, 1.0, values, grid=grid)
    assert len(counted) == len(values)
    assert sum(counted) <= 0.6 * cold


def test_continuity_sweep_default_r_max_is_twice_r0():
    # a fixed default of 2.0 would not even exceed r0 = 3
    model = VorticityModel.classical()
    default = continuity_sweep(model, 3.0, [1.0, 1.01])
    assert default == continuity_sweep(model, 3.0, [1.0, 1.01], r_max=6.0)


def test_a_grid_must_end_at_the_given_r_max(classical_model):
    grid = RadialGrid.geometric(1.0, 1.5, 513)
    with pytest.raises(DomainError, match="r_max"):
        run_uniqueness_analysis(classical_model, r_max=1.3, grid=grid)
    with pytest.raises(DomainError, match="r_max"):
        continuity_sweep(classical_model, 1.0, [1.0, 1.001], r_max=1.3, grid=grid)
    # a matching pair and a grid alone give the same result
    assert continuity_sweep(classical_model, 1.0, [1.0, 1.001], r_max=1.5, grid=grid) == \
        continuity_sweep(classical_model, 1.0, [1.0, 1.001], grid=grid)
    paired = run_uniqueness_analysis(classical_model, r_max=1.5, grid=grid)
    alone = run_uniqueness_analysis(classical_model, grid=grid)
    assert paired.report.as_dict() == alone.report.as_dict()
    assert alone.traj_picard.grid is grid


def test_a_grid_alone_skips_the_default_r_max(classical_model, monkeypatch):
    def unused(*args):
        raise AssertionError("default_r_max called although a grid was given")

    monkeypatch.setattr("streamuniq.verify.default_r_max", unused)
    grid = RadialGrid.geometric(1.0, 1.5, 513)
    assert run_uniqueness_analysis(classical_model, grid=grid).report.verdict


def test_default_r_max_reuses_the_window_radius(classical_model, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return compute_r2(*args)

    monkeypatch.setattr("streamuniq.verify.compute_r2", counting)
    res = run_uniqueness_analysis(classical_model)
    assert calls == [(1.0, 1.0, classical_model.holder_C)]
    assert res.traj_picard.grid.r_max == default_r_max(classical_model, 1.0, 1.0)


def test_analysis_and_sweep_sample_the_law_once(classical_model, monkeypatch):
    calls = []

    def counting(model):
        calls.append(model)
        return validate_hypotheses(model)

    # every module that looks the sampler up
    for module in (streamuniq.verify, streamuniq.picard, streamuniq.rk):
        monkeypatch.setattr(module, "validate_hypotheses", counting)
    grid = RadialGrid.geometric(1.0, 1.5, 513)
    run_uniqueness_analysis(classical_model, grid=grid)
    assert calls == [classical_model]
    continuity_sweep(classical_model, 1.0, [1.0, 1.001, 1.01], grid=grid)
    assert calls == [classical_model, classical_model]


def test_each_model_is_sampled_once_across_layers(tmp_path, monkeypatch, capsys):
    sampled, validated = [], []

    def sampling(model):
        sampled.append(model)
        return estimate_holder_constant(model)

    def counting(model):
        validated.append(model)
        return validate_hypotheses(model)

    monkeypatch.setattr("streamuniq.vorticity.estimate_holder_constant", sampling)
    for module in (streamuniq.verify, streamuniq.cli):
        monkeypatch.setattr(module, "validate_hypotheses", counting)
    model = VorticityModel.classical()
    grid = RadialGrid.geometric(1.0, 1.5, 513)
    run_uniqueness_analysis(model, grid=grid)
    continuity_sweep(model, 1.0, [1.0, 1.001, 1.01], grid=grid)
    run_uniqueness_analysis(model, r0=2.0, psi1=-0.5, grid=RadialGrid.geometric(2.0, 2.5, 257))
    assert validated == [model] * 3
    assert sampled == [model]
    # verify builds its own model and validates it twice: one sampling
    main(["verify", "--nodes", "65", "--out", str(tmp_path / "cert")])
    assert capsys.readouterr().out.startswith("sign_condition: PASS\nholder_bound: PASS\n")
    built = validated[3]
    assert validated[3:] == [built, built] and built is not model
    assert sampled == [model, built]


def test_analysis_and_sweep_reject_a_failing_law():
    zero = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    message = (r"^model failed hypothesis validation \(sign_margin=0\.0, holder_sup=0\.0, "
               r"holder_C=1\.0\); only picard_solve and rk_solve can skip this check, "
               r"with allow_unvalidated=True$")
    with pytest.raises(ModelValidationError, match=message):
        run_uniqueness_analysis(zero)
    with pytest.raises(ModelValidationError, match=message):
        continuity_sweep(zero, 1.0, [1.0, 1.01])
