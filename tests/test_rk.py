import re

import numpy as np
import pytest

from streamuniq import (DomainError, ModelValidationError, NonConvergenceError,
                        RadialGrid, StepControl, StepSizeUnderflowError,
                        VorticityModel, picard_solve, rk_solve)
from streamuniq import _kernels
from streamuniq._kernels import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _BETA, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7, _EXPO1,
    _FACC1, _FACC2, _P11, _P12, _P13, _P14, _P32, _P33, _P34, _P42, _P43, _P44, _P52, _P53,
    _P54, _P62, _P63, _P64, _P72, _P73, _P74, _SAFETY)
from streamuniq.vorticity import zero_vorticity

# outcomes of the reference core, which reports a stall instead of raising
_OK, _UNDERFLOW, _NONFINITE = "ok", "underflow", "non-finite"


def _reference_rk_core(f, u0, r_max, rtol, atol, h_init, h_min, h_max, nodes_out,
                       psi_out, u_out):
    # the kernel as it was before its dense output was vectorised: the same
    # stepping, with the quartic evaluated at one output node at a time
    t = nodes_out[0]
    p = 0.0
    u = u0
    psi_out[0] = 0.0
    u_out[0] = u0
    kp1 = u / t
    ku1 = -t * f(p)
    h = h_init
    facold = 1.0e-4
    idx = 1
    n_out = nodes_out.shape[0]
    n_acc = 0
    n_rej = 0
    rejected = False
    status = _OK
    while idx < n_out:
        if h > h_max:
            h = h_max
        last = False
        if t + h >= r_max:
            h = r_max - t
            last = True
        elif h < h_min or t + h <= t:
            status = _UNDERFLOW
            break

        s2 = t + _C2 * h
        p2 = p + h * (_A21 * kp1)
        u2 = u + h * (_A21 * ku1)
        kp2 = u2 / s2
        ku2 = -s2 * f(p2)
        s3 = t + _C3 * h
        p3 = p + h * (_A31 * kp1 + _A32 * kp2)
        u3 = u + h * (_A31 * ku1 + _A32 * ku2)
        kp3 = u3 / s3
        ku3 = -s3 * f(p3)
        s4 = t + _C4 * h
        p4 = p + h * (_A41 * kp1 + _A42 * kp2 + _A43 * kp3)
        u4 = u + h * (_A41 * ku1 + _A42 * ku2 + _A43 * ku3)
        kp4 = u4 / s4
        ku4 = -s4 * f(p4)
        s5 = t + _C5 * h
        p5 = p + h * (_A51 * kp1 + _A52 * kp2 + _A53 * kp3 + _A54 * kp4)
        u5 = u + h * (_A51 * ku1 + _A52 * ku2 + _A53 * ku3 + _A54 * ku4)
        kp5 = u5 / s5
        ku5 = -s5 * f(p5)
        s6 = t + h
        p6 = p + h * (_A61 * kp1 + _A62 * kp2 + _A63 * kp3 + _A64 * kp4 + _A65 * kp5)
        u6 = u + h * (_A61 * ku1 + _A62 * ku2 + _A63 * ku3 + _A64 * ku4 + _A65 * ku5)
        kp6 = u6 / s6
        ku6 = -s6 * f(p6)
        pn = p + h * (_B1 * kp1 + _B3 * kp3 + _B4 * kp4 + _B5 * kp5 + _B6 * kp6)
        un = u + h * (_B1 * ku1 + _B3 * ku3 + _B4 * ku4 + _B5 * ku5 + _B6 * ku6)
        s7 = t + h
        kp7 = un / s7
        ku7 = -s7 * f(pn)
        ep = h * (_E1 * kp1 + _E3 * kp3 + _E4 * kp4 + _E5 * kp5 + _E6 * kp6 + _E7 * kp7)
        eu = h * (_E1 * ku1 + _E3 * ku3 + _E4 * ku4 + _E5 * ku5 + _E6 * ku6 + _E7 * ku7)
        if not (np.isfinite(pn) and np.isfinite(un) and np.isfinite(ep) and np.isfinite(eu)):
            status = _NONFINITE
            break

        scp = atol + rtol * max(abs(p), abs(pn))
        scu = atol + rtol * max(abs(u), abs(un))
        ep_r = ep / scp
        eu_r = eu / scu
        err = np.sqrt(0.5 * (ep_r * ep_r + eu_r * eu_r))
        fac11 = err ** _EXPO1
        if err <= 1.0:
            t_new = r_max if last else t + h
            while idx < n_out and (nodes_out[idx] <= t_new or last):
                theta = (nodes_out[idx] - t) / h
                w1 = theta * (_P11 + theta * (_P12 + theta * (_P13 + theta * _P14)))
                w3 = theta * theta * (_P32 + theta * (_P33 + theta * _P34))
                w4 = theta * theta * (_P42 + theta * (_P43 + theta * _P44))
                w5 = theta * theta * (_P52 + theta * (_P53 + theta * _P54))
                w6 = theta * theta * (_P62 + theta * (_P63 + theta * _P64))
                w7 = theta * theta * (_P72 + theta * (_P73 + theta * _P74))
                psi_out[idx] = p + h * (w1 * kp1 + w3 * kp3 + w4 * kp4 + w5 * kp5
                                        + w6 * kp6 + w7 * kp7)
                u_out[idx] = u + h * (w1 * ku1 + w3 * ku3 + w4 * ku4 + w5 * ku5
                                      + w6 * ku6 + w7 * ku7)
                idx += 1
            fac = fac11 / facold ** _BETA
            fac = max(_FACC2, min(_FACC1, fac / _SAFETY))
            hnew = h / fac
            if rejected:
                hnew = min(hnew, h)
            facold = max(err, 1.0e-4)
            rejected = False
            kp1 = kp7
            ku1 = ku7
            p = pn
            u = un
            t = t_new
            n_acc += 1
            h = hnew
        else:
            n_rej += 1
            rejected = True
            h = h / min(_FACC1, fac11 / _SAFETY)
    return n_acc, n_rej, h, status


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
    assert neg.window_end == traj.window_end


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
    grid = RadialGrid.uniform(1.0, 1.5, 129)
    psi = []
    for tol in (1e-6, 1e-8, 1e-10):
        traj, _ = rk_solve(classical_model, 1.0, 1.0, 1.5,
                           control=StepControl(rel_tol=tol, abs_tol=tol * 1.0e-6),
                           output_grid=grid)
        psi.append(traj.psi)
    errs = [float(np.max(np.abs(p - psi[-1]))) for p in psi[:-1]]
    assert errs[0] > errs[1]
    assert errs[0] < 1e-6


def _underflow_law(psi):
    # the classical law plus 1e9 beyond |psi| = 0.3: validation samples only
    # |psi| <= delta = 0.25, and the step collapses where psi crosses 0.3
    f = psi - psi / np.sqrt(abs(psi)) if psi != 0.0 else 0.0
    return f + 1.0e9 if abs(psi) > 0.3 else f


def test_step_size_underflow():
    model = VorticityModel.custom(_underflow_law)
    with pytest.raises(StepSizeUnderflowError,
                       match=r"^step size fell below h_min = 1e-14 at r = 1\.33622") as err:
        rk_solve(model, 1.0, 1.0, 2.0)
    assert err.value.r_at == 1.3362233197736864
    assert type(err.value.r_at) is float


def test_non_finite_state():
    calls = []

    def law(p):
        calls.append(p)
        if len(calls) > 20:
            return np.inf
        return p - p / np.sqrt(abs(p)) if p != 0.0 else 0.0

    model = VorticityModel.custom(law, holder_C=1.0)
    with (np.errstate(invalid="ignore"),
          pytest.raises(NonConvergenceError, match=r"^state turned non-finite at r = [0-9.e+-]+$")):
        rk_solve(model, 1.0, 1.0, 1.5, allow_unvalidated=True)


def test_step_budget_exhaustion(classical_model, monkeypatch):
    monkeypatch.setattr(_kernels, "_MAX_STEPS", 20)
    with pytest.raises(NonConvergenceError, match="budget"):
        rk_solve(classical_model, 1.0, 1.0, 1.5)


def test_control_validation(classical_model):
    for control, message in ((StepControl(rel_tol=0.0), "rel_tol must lie in (0, 1)"),
                             (StepControl(rel_tol=2.0), "rel_tol must lie in (0, 1)"),
                             (StepControl(abs_tol=-1.0), "abs_tol must be positive")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            rk_solve(classical_model, 1.0, 1.0, 2.0, control=control)


def test_removed_inputs_raise_type_error(classical_model):
    with pytest.raises(TypeError):
        StepControl(h_min=0.05)
    with pytest.raises(TypeError):
        rk_solve(classical_model, 1.0, 1.0, 2.0, validation=None)


def test_argument_validation(classical_model):
    with pytest.raises(DomainError, match=r"^r0 must be finite and >= 1, got 0\.5$"):
        rk_solve(classical_model, np.float64(0.5), 1.0, 2.0)
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


@pytest.mark.parametrize("model_name, psi1, grid", [
    ("classical", 1.0, RadialGrid.geometric(1.0, 1.5, 2049)),
    ("classical", 0.7, RadialGrid.uniform(1.0, 1.6, 100001)),
    # far fewer nodes than steps: most accepted steps cover no node
    ("classical", 1.0, RadialGrid.uniform(1.0, 1.5, 3)),
    ("oscillatory", -1.3, RadialGrid.geometric(1.0, 1.5, 2049)),
])
def test_dense_fill_matches_per_node_reference(classical_model, oscillatory_model,
                                               model_name, psi1, grid):
    model = classical_model if model_name == "classical" else oscillatory_model
    traj, diag = rk_solve(model, grid.r0, psi1, grid.r_max, output_grid=grid)
    span = grid.r_max - grid.r0
    psi = np.empty_like(grid.nodes)
    u = np.empty_like(grid.nodes)
    n_acc, n_rej, h_last, status = _reference_rk_core(
        model.evaluate, grid.r0 * abs(psi1), grid.r_max, 1.0e-10, 1.0e-16,
        1.0e-4 * span, 1.0e-14 * span, span, grid.nodes, psi, u)
    assert status == _OK
    assert (diag.n_accepted, diag.n_rejected, diag.h_final) == (n_acc, n_rej, h_last)
    sign = np.sign(psi1)
    assert np.array_equal(traj.psi, sign * psi)
    assert np.array_equal(traj.u, sign * u)
