import warnings

import numpy as np
import pytest

from streamuniq import (DomainError, ModelValidationError, NonConvergenceError, RadialGrid,
                        VorticityModel, WindowCollapseError, picard_solve, weighted_norm)
from streamuniq.picard import _require_valid, residual
from streamuniq.vorticity import HypothesisReport, zero_vorticity


@pytest.fixture(scope="module")
def solved(classical_model):
    grid = RadialGrid.geometric(1.0, 1.5, 1025)
    traj, diag = picard_solve(classical_model, 1.0, 1.0, grid, tol=1e-11)
    return traj, diag


def test_converges_in_few_iterations(solved):
    traj, diag = solved
    assert diag.converged
    assert diag.iterations == 5
    deltas = diag.weighted_deltas
    assert deltas[-1] <= 1e-11
    # each sweep contracts the weighted update by about three decades
    for before, after in zip(deltas, deltas[1:]):
        assert after < 0.01 * before


def test_endpoint_values_frozen(solved):
    traj, _ = solved
    np.testing.assert_allclose(traj.psi[-1], 0.42876226653654, rtol=1e-12)
    np.testing.assert_allclose(traj.u[-1], 1.1419835036933215, rtol=1e-12)
    np.testing.assert_allclose(traj.window_end, 1.2722952260625808, rtol=1e-12)


def test_initial_conditions_exact(solved):
    traj, _ = solved
    assert traj.psi[0] == 0.0
    assert traj.u[0] == 1.0
    assert traj.r0psi1 == 1.0
    assert traj.method_tag == "picard"


def test_fixed_point_defect_small(classical_model, solved):
    traj, _ = solved
    assert residual(classical_model, traj) < 1e-13
    assert residual(classical_model, traj, weighted=True) < 1e-13


def test_monotone_increasing_solution(solved):
    traj, _ = solved
    assert np.all(np.diff(traj.psi) > 0.0)
    assert np.all(traj.u > 0.0)


def test_reflection_is_exact(classical_model, solved):
    traj, _ = solved
    grid = traj.grid
    neg, _ = picard_solve(classical_model, 1.0, -1.0, grid, tol=1e-11)
    assert np.array_equal(neg.psi, -traj.psi)
    assert np.array_equal(neg.u, -traj.u)
    assert neg.window_end == traj.window_end


def test_zero_vorticity_reproduces_log_exactly():
    model = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    grid = RadialGrid.uniform(1.0, 2.0, 257)
    traj, diag = picard_solve(model, 1.0, 1.0, grid, allow_unvalidated=True)
    assert np.array_equal(traj.psi, grid.log_weights)
    assert np.array_equal(traj.u, np.ones(grid.n))
    assert diag.iterations == 1
    assert diag.weighted_deltas == [0.0]
    # the log profile leaves (0, 0.25] just past exp(0.25)
    assert traj.window_end == 1.28125


def test_validation_gate(classical_model):
    grid = RadialGrid.uniform(1.0, 2.0, 65)
    zero = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    with pytest.raises(ModelValidationError, match="allow_unvalidated"):
        picard_solve(zero, 1.0, 1.0, grid)
    # allow_unvalidated is the one way past the sampling
    picard_solve(zero, 1.0, 1.0, grid, allow_unvalidated=True)
    with pytest.raises(TypeError):
        picard_solve(classical_model, 1.0, 1.0, grid, validation=None)
    # a failing report raises, a passing one does not
    ok = HypothesisReport(sign_margin=1.0, holder_sup=0.0, samples_used=1,
                          checks=(("sign_condition", True), ("holder_bound", True)))
    _require_valid(zero, ok)
    bad = HypothesisReport(sign_margin=-1.0, holder_sup=0.0, samples_used=1,
                           checks=(("sign_condition", False), ("holder_bound", True)))
    with pytest.raises(ModelValidationError):
        _require_valid(classical_model, bad)


def test_window_collapse_on_coarse_grid(classical_model):
    # log(1.5) > delta already at the first interior node
    grid = RadialGrid.uniform(1.0, 2.0, 3)
    with pytest.raises(WindowCollapseError, match="refine the grid"):
        picard_solve(classical_model, 1.0, 1.0, grid)


def test_non_convergence_carries_diagnostics(classical_model):
    grid = RadialGrid.geometric(1.0, 1.5, 257)
    with pytest.raises(NonConvergenceError) as err:
        picard_solve(classical_model, 1.0, 1.0, grid, tol=1e-16, max_iter=1)
    diag = err.value.diagnostics
    assert diag.iterations == 1
    assert not diag.converged
    assert len(diag.weighted_deltas) == 1


def test_non_finite_iterate_detected():
    blowup = VorticityModel.custom(lambda p: np.inf if p > 0.1 else 0.0, holder_C=1.0)
    grid = RadialGrid.geometric(1.0, 1.5, 257)
    with pytest.raises(NonConvergenceError, match="non-finite"):
        picard_solve(blowup, 1.0, 1.0, grid, allow_unvalidated=True)


def test_overflowing_moments_are_non_convergence_without_warnings():
    # 1e308 is finite, but its differences overflow inside the prefix moments
    huge = VorticityModel.custom(lambda p: 1.0e308 if p > 0.3 else -p, holder_C=1.0)
    grid = RadialGrid.geometric(1.0, 2.0, 2049)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="^iterate turned non-finite$"):
            picard_solve(huge, 1.0, 1.0, grid, allow_unvalidated=True)


def test_vorticity_overflow_is_non_convergence_at_either_call_site():
    # the law turns infinite after a set number of grid evaluations, so the
    # overflow lands in iteration 2 or in the final evaluation for u
    grid = RadialGrid.geometric(1.0, 1.5, 257)
    linear = VorticityModel.custom(lambda p: -p, holder_C=1.0)
    _, diag = picard_solve(linear, 1.0, 1.0, grid, allow_unvalidated=True)
    for finite_evals in (2, diag.iterations):
        calls = []

        def law(p):
            calls.append(p)
            return -p if len(calls) <= finite_evals * grid.n else np.inf

        model = VorticityModel.custom(law, holder_C=1.0)
        with pytest.raises(NonConvergenceError,
                           match="^vorticity evaluation turned non-finite$") as err:
            picard_solve(model, 1.0, 1.0, grid, allow_unvalidated=True)
        assert err.value.diagnostics.iterations == finite_evals
        assert len(err.value.diagnostics.weighted_deltas) == finite_evals
        assert err.value.diagnostics.converged is False


@pytest.mark.parametrize("kwargs", [
    dict(r0=0.5, psi1=1.0),
    dict(r0=np.inf, psi1=1.0),
    dict(r0=1.0, psi1=0.0),
    dict(r0=1.0, psi1=np.nan),
    dict(r0=1.0, psi1=1.0, tol=0.0),
    dict(r0=1.0, psi1=1.0, max_iter=0),
])
def test_argument_validation(classical_model, kwargs):
    grid = RadialGrid.geometric(max(kwargs["r0"], 1.0) if np.isfinite(kwargs["r0"]) else 1.0,
                                2.0, 65)
    with pytest.raises(DomainError):
        picard_solve(classical_model, grid=grid, **kwargs)


def test_grid_must_start_at_r0(classical_model):
    grid = RadialGrid.geometric(1.5, 2.0, 65)
    with pytest.raises(DomainError, match="start exactly"):
        picard_solve(classical_model, 1.0, 1.0, grid)


def test_weighted_norm_basics():
    grid = RadialGrid.uniform(1.0, 2.0, 5)
    val, r_at = weighted_norm(np.zeros(5), grid)
    assert (val, r_at) == (0.0, 1.25)
    x = np.array([0.0, 0.2, 0.3, 0.45, 0.6])
    val, r_at = weighted_norm(x, grid)
    np.testing.assert_allclose(val, 0.89628402354491, rtol=1e-13)
    assert r_at == 1.25
    with pytest.raises(DomainError):
        weighted_norm(np.ones(5), grid)
    with pytest.raises(DomainError):
        weighted_norm(np.zeros(4), grid)


def test_weighted_norm_tie_is_leftmost():
    grid = RadialGrid.uniform(1.0, 2.0, 5)
    x = 0.7 * grid.log_weights
    val, r_at = weighted_norm(x, grid)
    np.testing.assert_allclose(val, 0.7, rtol=1e-15)
    assert r_at == 1.25


@pytest.mark.parametrize("psi1", [0.8, -0.8])
def test_a_converged_start_stops_after_one_iteration(classical_model, psi1):
    grid = RadialGrid.geometric(1.0, 1.5, 1025)
    cold, cold_diag = picard_solve(classical_model, 1.0, psi1, grid)
    warm, diag = picard_solve(classical_model, 1.0, psi1, grid, start=cold.psi)
    assert cold_diag.iterations > 1
    assert diag.iterations == 1
    assert diag.weighted_deltas[0] <= 1e-10
    # the start is recorded in the solver's |psi1| sign
    assert np.array_equal(diag.iterates[0], np.sign(psi1) * cold.psi)
    assert weighted_norm(warm.psi - cold.psi, grid)[0] <= 1e-10
    assert warm.u[0] == cold.u[0]
    assert warm.window_end == cold.window_end


def test_start_must_match_the_grid(classical_model):
    grid = RadialGrid.geometric(1.0, 1.5, 65)
    with pytest.raises(DomainError, match="start"):
        picard_solve(classical_model, 1.0, 1.0, grid, start=grid.log_weights[:-1])
    start = grid.log_weights.copy()
    start[-1] = np.nan
    with pytest.raises(DomainError, match="start"):
        picard_solve(classical_model, 1.0, 1.0, grid, start=start)


@pytest.mark.parametrize("first", [0.0, -1e-3, 0.3])
def test_a_start_outside_the_band_collapses(classical_model, first):
    grid = RadialGrid.geometric(1.0, 1.5, 65)
    start = grid.log_weights.copy()
    start[1] = first
    with pytest.raises(WindowCollapseError, match="refine the grid"):
        picard_solve(classical_model, 1.0, 1.0, grid, start=start)
