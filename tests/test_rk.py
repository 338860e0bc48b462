import numpy as np
import pytest

from streamuniq import (DomainError, ModelValidationError, NonConvergenceError,
                        RadialGrid, StepControl, StepSizeUnderflowError,
                        VorticityModel, convergence_order_probe, picard_solve,
                        rhs, rk_solve, zero_vorticity)
from streamuniq import _kernels


@pytest.fixture(scope="module")
def fine_grid():
    return RadialGrid.geometric(1.0, 1.5, 1025)


@pytest.fixture(scope="module")
def rk_run(classical_model, fine_grid):
    return rk_solve(classical_model, 1.0, 1.0, 1.5, output_grid=fine_grid)


def test_step_counts_and_endpoint(rk_run):
    traj, diag = rk_run
    assert diag.n_accepted == 46
    assert diag.n_rejected == 3
    np.testing.assert_allclose(traj.psi[-1], 0.4287624032516233, rtol=1e-9)
    assert traj.psi[0] == 0.0
    assert traj.u[0] == 1.0
    assert traj.method_tag == "rk"


def test_matches_fixed_point_solver(classical_model, fine_grid, rk_run):
    traj_rk, _ = rk_run
    traj_p, _ = picard_solve(classical_model, 1.0, 1.0, fine_grid, tol=1e-11)
    # the fixed-point side carries the quadrature error of a 1025-node grid
    assert np.max(np.abs(traj_rk.psi - traj_p.psi)) < 5e-7
    assert np.max(np.abs(traj_rk.u - traj_p.u)) < 5e-6
    assert traj_rk.window_end == traj_p.window_end


def test_default_output_grid(classical_model):
    traj, diag = rk_solve(classical_model, 1.0, 1.0, 2.0)
    assert traj.grid.n == 513
    assert traj.nodes[0] == 1.0
    assert traj.nodes[-1] == 2.0
    np.testing.assert_allclose(traj.psi[-1], 0.7787422446722816, rtol=1e-9)
    assert diag.n_accepted > 0
    assert diag.rel_tol == 1e-10
    assert diag.abs_tol == 1e-16


def test_reflection_is_exact(classical_model, fine_grid, rk_run):
    traj, _ = rk_run
    neg, _ = rk_solve(classical_model, 1.0, -1.0, 1.5, output_grid=fine_grid)
    assert np.array_equal(neg.psi, -traj.psi)
    assert np.array_equal(neg.u, -traj.u)


def test_zero_vorticity_closed_form():
    model = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    grid = RadialGrid.uniform(1.0, 2.0, 513)
    traj, _ = rk_solve(model, 1.0, 1.0, 2.0, control=StepControl(rel_tol=1e-12),
                       output_grid=grid, allow_unvalidated=True)
    np.testing.assert_allclose(traj.psi, grid.log_weights, rtol=0, atol=1e-10)
    # u = r*psi' is conserved exactly when the law vanishes
    np.testing.assert_array_equal(traj.u, np.ones(grid.n))


def test_custom_law_matches_builtin(classical_model, fine_grid, rk_run):
    traj, _ = rk_run

    def law(p):
        return p - p / np.sqrt(abs(p)) if p != 0.0 else 0.0

    model = VorticityModel.custom(law, holder_C=1.0)
    got, _ = rk_solve(model, 1.0, 1.0, 1.5, output_grid=fine_grid,
                      allow_unvalidated=True)
    np.testing.assert_allclose(got.psi, traj.psi, rtol=1e-12, atol=1e-15)


def test_tighter_tolerance_reduces_error(classical_model):
    probe = convergence_order_probe(classical_model, 1.0, 1.0, 1.5, [1e-6, 1e-8, 1e-10])
    assert [t for t, _ in probe] == [1e-6, 1e-8]
    errs = [e for _, e in probe]
    assert errs[0] > errs[1]
    assert errs[0] < 1e-6
    with pytest.raises(DomainError):
        convergence_order_probe(classical_model, 1.0, 1.0, 1.5, [1e-8])


def test_step_size_underflow(classical_model):
    control = StepControl(h_min=0.05, h_init=0.05, h_max=0.05)
    with pytest.raises(StepSizeUnderflowError) as err:
        rk_solve(classical_model, 1.0, 1.0, 1.5, control=control)
    assert err.value.r_at == 1.0


def test_step_budget_exhaustion(classical_model, monkeypatch):
    monkeypatch.setattr(_kernels, "_MAX_STEPS", 20)
    with pytest.raises(NonConvergenceError, match="budget"):
        rk_solve(classical_model, 1.0, 1.0, 1.5)


def test_control_validation():
    with pytest.raises(DomainError):
        StepControl(rel_tol=0.0).resolved(1.0)
    with pytest.raises(DomainError):
        StepControl(rel_tol=2.0).resolved(1.0)
    with pytest.raises(DomainError):
        StepControl(abs_tol=-1.0).resolved(1.0)
    with pytest.raises(DomainError):
        StepControl(h_min=0.5, h_init=0.1).resolved(1.0)
    h_init, h_min, h_max = StepControl().resolved(2.0)
    assert (h_init, h_min, h_max) == (2e-4, 2e-14, 2.0)


def test_argument_validation(classical_model):
    with pytest.raises(DomainError):
        rk_solve(classical_model, 0.5, 1.0, 2.0)
    with pytest.raises(DomainError):
        rk_solve(classical_model, 1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        rk_solve(classical_model, 1.0, 1.0, 1.0)
    bad_grid = RadialGrid.uniform(1.0, 1.75, 65)
    with pytest.raises(DomainError, match="span"):
        rk_solve(classical_model, 1.0, 1.0, 2.0, output_grid=bad_grid)


def test_validation_gate():
    zero = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    with pytest.raises(ModelValidationError):
        rk_solve(zero, 1.0, 1.0, 2.0)


def test_rhs_values(classical_model):
    dpsi, du = rhs(classical_model, 2.0, 0.25, 1.5)
    assert dpsi == 0.75
    np.testing.assert_allclose(du, 0.5, rtol=1e-15)
    with pytest.raises(DomainError):
        rhs(classical_model, -1.0, 0.1, 1.0)
    with pytest.raises(DomainError):
        rhs(classical_model, 1.0, np.nan, 1.0)
