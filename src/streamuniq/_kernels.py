"""Low-level numerical kernels: vorticity grids, prefix moments, the RK core."""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError, StepSizeUnderflowError


# ---------------------------------------------------------------------------
# scalar vorticity
# ---------------------------------------------------------------------------


def f_classical(psi):
    if psi == 0.0:
        return 0.0
    return psi - psi / np.sqrt(np.abs(psi))


def f_oscillatory(c1, c2, psi):
    if psi == 0.0:
        return 0.0
    t = psi * psi
    bracket = 1.0 + c1 - np.sin(c2 * t / (t + 1.0))
    return psi - (psi / np.sqrt(np.abs(psi))) * bracket


# ---------------------------------------------------------------------------
# vorticity on a whole grid
# ---------------------------------------------------------------------------


def vorticity_grid(kind, c1, c2, psi):
    """The builtin law of kind "classical" or "oscillatory" at every psi."""
    psi = np.asarray(psi, dtype=np.float64)
    root = np.sqrt(np.abs(psi))
    core = psi / np.where(root > 0.0, root, 1.0)
    if kind == "oscillatory":
        t = psi * psi
        core = core * (1.0 + c1 - np.sin(c2 * t / (t + 1.0)))
    return psi - core


# ---------------------------------------------------------------------------
# product-trapezoid prefix moments for the logarithmic Volterra kernel
# ---------------------------------------------------------------------------
# For nodes r_0 < ... < r_{n-1} and samples v_j, the integral
#     K(r_i) = int_{r_0}^{r_i} tau * ln(r_i / tau) * v(tau) dtau
# of the piecewise-linear interpolant of v decomposes as
#     K_i = L_i * A_i - B_i,          L_i = ln(r_i / r_0),
# with prefix sums A_i = int tau*v and B_i = int tau*ln(tau/r_0)*v.  The
# per-subinterval closed forms below keep every intermediate on the scale of
# the local integral, so no O(1) cancellation pollutes the near-r_0 pieces.
# Half of each closed form depends on the nodes alone; prefix_geometry
# computes that half once per grid and prefix_moments adds the values.


def prefix_geometry(nodes):
    """Node-only terms of the rule, one entry per subinterval [a, b]:
    (h, a + h/2, a/2 + h/3, t1, t2) with t1 = int_a^b tau*ln(tau/a) dtau and
    t2 = int_a^b tau*(tau - a)*ln(tau/a) dtau."""
    a = nodes[:-1]
    b = nodes[1:]
    h = b - a
    lab = np.log1p(h / a)
    t1 = 0.5 * b * b * lab - 0.25 * h * (a + b)
    t2 = (b * b * b) * lab / 3.0 - h * (b * b + a * b + a * a) / 9.0 - a * t1
    return h, a + 0.5 * h, 0.5 * a + h / 3.0, t1, t2


def prefix_moments(geometry, log_weights, values):
    h, mid, ramp, t1, t2 = geometry
    va = values[:-1]
    s = (values[1:] - va) / h
    p1 = va * h * mid + s * h * h * ramp
    p2 = log_weights[:-1] * p1 + va * t1 + s * t2
    n = values.shape[0]
    A = np.empty(n, dtype=np.float64)
    B = np.empty(n, dtype=np.float64)
    A[0] = 0.0
    B[0] = 0.0
    np.cumsum(p1, out=A[1:])
    np.cumsum(p2, out=B[1:])
    return A, B


# ---------------------------------------------------------------------------
# embedded 5(4) pair with FSAL, PI step control and quartic dense output
# ---------------------------------------------------------------------------

_A21 = 1.0 / 5.0
_A31 = 3.0 / 40.0
_A32 = 9.0 / 40.0
_A41 = 44.0 / 45.0
_A42 = -56.0 / 15.0
_A43 = 32.0 / 9.0
_A51 = 19372.0 / 6561.0
_A52 = -25360.0 / 2187.0
_A53 = 64448.0 / 6561.0
_A54 = -212.0 / 729.0
_A61 = 9017.0 / 3168.0
_A62 = -355.0 / 33.0
_A63 = 46732.0 / 5247.0
_A64 = 49.0 / 176.0
_A65 = -5103.0 / 18656.0
_B1 = 35.0 / 384.0
_B3 = 500.0 / 1113.0
_B4 = 125.0 / 192.0
_B5 = -2187.0 / 6784.0
_B6 = 11.0 / 84.0
_C2 = 1.0 / 5.0
_C3 = 3.0 / 10.0
_C4 = 4.0 / 5.0
_C5 = 8.0 / 9.0
# difference between the 5th and embedded 4th order weights
_E1 = 71.0 / 57600.0
_E3 = -71.0 / 16695.0
_E4 = 71.0 / 1920.0
_E5 = -17253.0 / 339200.0
_E6 = 22.0 / 525.0
_E7 = -1.0 / 40.0
# quartic dense-output polynomial, w_i(theta) = theta*(P_i1 + theta*(...))
_P11 = 1.0
_P12 = -8048581381.0 / 2820520608.0
_P13 = 8663915743.0 / 2820520608.0
_P14 = -12715105075.0 / 11282082432.0
_P32 = 131558114200.0 / 32700410799.0
_P33 = -68118460800.0 / 10900136933.0
_P34 = 87487479700.0 / 32700410799.0
_P42 = -1754552775.0 / 470086768.0
_P43 = 14199869525.0 / 1410260304.0
_P44 = -10690763975.0 / 1880347072.0
_P52 = 127303824393.0 / 49829197408.0
_P53 = -318862633887.0 / 49829197408.0
_P54 = 701980252875.0 / 199316789632.0
_P62 = -282668133.0 / 205662961.0
_P63 = 2019193451.0 / 616988883.0
_P64 = -1453857185.0 / 822651844.0
_P72 = 40617522.0 / 29380423.0
_P73 = -110615467.0 / 29380423.0
_P74 = 69997945.0 / 29380423.0

_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FACC1 = 5.0  # hnew >= h/5 on any single adjustment
_FACC2 = 0.1  # hnew <= 10*h
_MAX_STEPS = 10_000_000


# the loop tests the state for finiteness itself, so an overflowing law ends
# in NonConvergenceError without numpy warnings on stderr
@np.errstate(all="ignore")
def rk_core(f, u0, r_max, rtol, atol, nodes_out):
    """Integrate psi' = u/r, u' = -r*f(psi) from (nodes_out[0], 0, u0).

    Returns (psi, u, n_accepted, n_rejected, h_last) with psi and u sampled
    at every node of nodes_out (strictly increasing, nodes_out[-1] <= r_max).
    With span = r_max - nodes_out[0], the first step tries 1e-4 * span and
    h_min = 1e-14 * span; a step that would pass r_max is cut to end there.
    Each accepted step fills the nodes it covers in one vectorised
    evaluation of its quartic dense interpolant, with per node the same
    arithmetic as a scalar evaluation.  Raises StepSizeUnderflowError when
    the step falls below h_min (or no longer advances r), and
    NonConvergenceError when the step budget runs out or the state turns
    non-finite.
    """
    t = nodes_out[0]
    p = 0.0
    u = u0
    psi_out = np.empty_like(nodes_out)
    u_out = np.empty_like(nodes_out)
    psi_out[0] = 0.0
    u_out[0] = u0
    kp1 = u / t
    ku1 = -t * f(p)
    span = float(r_max - t)
    h = 1.0e-4 * span
    h_min = 1.0e-14 * span
    facold = 1.0e-4
    idx = 1
    n_out = nodes_out.shape[0]
    n_acc = 0
    n_rej = 0
    rejected = False
    while idx < n_out:
        last = False
        if t + h >= r_max:
            h = r_max - t
            last = True
        if (not last and h < h_min) or t + h <= t:
            raise StepSizeUnderflowError(
                f"step size fell below h_min = {float(h_min)!r} at r = {float(t)!r}", float(t))
        if n_acc + n_rej >= _MAX_STEPS:
            raise NonConvergenceError(f"step budget exhausted at r = {float(t)!r}")

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
            raise NonConvergenceError(f"state turned non-finite at r = {float(t)!r}")

        scp = atol + rtol * max(abs(p), abs(pn))
        scu = atol + rtol * max(abs(u), abs(un))
        ep_r = ep / scp
        eu_r = eu / scu
        err = np.sqrt(0.5 * (ep_r * ep_r + eu_r * eu_r))
        fac11 = err ** _EXPO1

        if err <= 1.0:
            t_new = r_max if last else t + h
            stop = n_out if last else int(np.searchsorted(nodes_out, t_new, side="right"))
            theta = (nodes_out[idx:stop] - t) / h
            w1 = theta * (_P11 + theta * (_P12 + theta * (_P13 + theta * _P14)))
            w3 = theta * theta * (_P32 + theta * (_P33 + theta * _P34))
            w4 = theta * theta * (_P42 + theta * (_P43 + theta * _P44))
            w5 = theta * theta * (_P52 + theta * (_P53 + theta * _P54))
            w6 = theta * theta * (_P62 + theta * (_P63 + theta * _P64))
            w7 = theta * theta * (_P72 + theta * (_P73 + theta * _P74))
            psi_out[idx:stop] = p + h * (w1 * kp1 + w3 * kp3 + w4 * kp4 + w5 * kp5 + w6 * kp6 + w7 * kp7)
            u_out[idx:stop] = u + h * (w1 * ku1 + w3 * ku3 + w4 * ku4 + w5 * ku5 + w6 * ku6 + w7 * ku7)
            idx = stop
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
    return psi_out, u_out, n_acc, n_rej, h


# perfbench/tracing.py times the RK core by wrapping this name, so rk_solve
# looks it up on the module at call time
rk_core_python = rk_core
