import numpy as np
import pytest

from streamuniq import (ContractionViolationError, DomainError, RadialGrid,
                        Trajectory, UniquenessWindow, VorticityModel,
                        check_lower_bound, compute_r2, continuity_sweep,
                        contraction_probe, deviation_limit_trace,
                        run_uniqueness_analysis, trace_is_monotone,
                        window_restricted_delta_ratios)

SQRT2 = 1.4142135623730951


@pytest.mark.parametrize("r0,psi1,C,r2,binding", [
    (1.0, 1.0, 1.0, SQRT2, "quadratic"),
    (2.0, 0.5, 1.0, 2.23606797749979, "quadratic"),
    (1.0, 1.0, 0.01, 2.7182818257407635, "log"),
])
def test_compute_r2(r0, psi1, C, r2, binding):
    window = compute_r2(r0, psi1, C)
    np.testing.assert_allclose(window.r2, r2, rtol=0, atol=1e-12)
    assert window.binding_constraint == binding
    assert window.window_end_effective == window.r2


def test_compute_r2_rejects_bad_arguments():
    with pytest.raises(DomainError):
        compute_r2(0.5, 1.0, 1.0)
    with pytest.raises(DomainError, match="reflect"):
        compute_r2(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        compute_r2(1.0, 1.0, 0.0)


def test_window_clipping():
    window = compute_r2(1.0, 1.0, 1.0)
    clipped = window.clipped(1.2)
    assert clipped.window_end_effective == 1.2
    assert clipped.r2 == window.r2
    # clipping beyond the cap is a no-op
    assert window.clipped(2.0).window_end_effective == window.r2


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
            classical_analysis.window)
        assert ratios
        assert max(ratios) <= 0.55

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
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    # psi = 0.3*L with slope u0 = 0.3 sits exactly on the logarithmic bound
    assert check_lower_bound(ta, window) == 0.0
    low = Trajectory(grid=ta.grid, psi=0.99 * ta.psi, u=ta.u, window_end=2.0,
                     method_tag="picard")
    assert check_lower_bound(low, window) < 0.0


def test_deviation_trace_synthetic_oracle():
    # deviation alpha*L*(r-1) gives weighted value alpha*(r-1) exactly
    alpha = 1e-3
    ta, tb = _toy_pair(alpha=alpha, shape=lambda r: r - 1.0)
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    trace = deviation_limit_trace(ta, tb, window)
    assert len(trace) == 12
    for r, y in trace:
        np.testing.assert_allclose(y, alpha * (r - 1.0), rtol=1e-10)
    assert trace_is_monotone(trace, 0.0)


def test_trace_monotonicity_flags_growth():
    # deviation growing toward r0
    ta, tb = _toy_pair(alpha=1e-3, shape=lambda r: 2.0 - r)
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    trace = deviation_limit_trace(ta, tb, window)
    assert not trace_is_monotone(trace, 0.0)
    assert trace_is_monotone(trace, 1e-3)
    with pytest.raises(DomainError):
        trace_is_monotone(list(reversed(trace)), 0.0)


def test_pair_must_share_grid_and_slope():
    ta, tb = _toy_pair(alpha=1e-3)
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    other = RadialGrid.uniform(1.0, 2.0, 33)
    foreign = Trajectory(grid=other, psi=0.3 * other.log_weights,
                         u=np.full(33, 0.3), window_end=2.0, method_tag="rk")
    with pytest.raises(DomainError, match="share one grid"):
        deviation_limit_trace(ta, foreign, window)
    tilted = Trajectory(grid=ta.grid, psi=tb.psi, u=tb.u * 2.0, window_end=2.0,
                        method_tag="rk")
    with pytest.raises(DomainError, match="initial slope"):
        deviation_limit_trace(ta, tilted, window)


def test_contraction_probe_flags_constant_deviation():
    # y(r) = alpha cannot satisfy y <= coeff * int tau*y near r0, where the
    # integral vanishes; the first interior node must violate
    ta, tb = _toy_pair(alpha=1e-6)
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    model = VorticityModel.classical()
    with pytest.raises(ContractionViolationError) as err:
        contraction_probe(model, ta, tb, window, slack=0.0)
    assert err.value.r_at == ta.nodes[1]
    assert err.value.excess > 0.0
    # enough slack absorbs the whole deviation scale
    ratio = contraction_probe(model, ta, tb, window, slack=1e-5)
    assert ratio > 0.0


def test_contraction_probe_coincident_pair():
    ta, tb = _toy_pair(alpha=0.0)
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    assert contraction_probe(VorticityModel.classical(), ta, tb, window) == 0.0


def test_contraction_probe_guards():
    ta, tb = _toy_pair(alpha=0.0)
    window = UniquenessWindow(r2=2.0, binding_constraint="quadratic",
                              window_end_effective=2.0)
    model = VorticityModel.classical()
    with pytest.raises(DomainError, match="slack"):
        contraction_probe(model, ta, tb, window, slack=-1.0)
    low = Trajectory(grid=ta.grid, psi=0.9 * ta.psi, u=ta.u, window_end=2.0,
                     method_tag="picard")
    with pytest.raises(DomainError, match="precondition"):
        contraction_probe(model, low, low, window)


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


def test_continuity_sweep_default_r_max_is_twice_r0():
    # a fixed default of 2.0 would not even exceed r0 = 3
    model = VorticityModel.classical()
    default = continuity_sweep(model, 3.0, [1.0, 1.01])
    assert default == continuity_sweep(model, 3.0, [1.0, 1.01], r_max=6.0)
