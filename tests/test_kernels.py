import numpy as np

from streamuniq._kernels import (f_classical, f_oscillatory, prefix_geometry, prefix_moments,
                                 vorticity_grid)


def test_scalar_laws_match_reference():
    psi = 0.1796875
    ref = psi - psi / np.sqrt(psi)
    np.testing.assert_allclose(f_classical(psi), ref, rtol=0, atol=0)
    c1, c2 = np.sin(0.01), 0.02
    mod = 1.0 + c1 - np.sin(c2 * psi * psi / (psi * psi + 1.0))
    ref_osc = psi - (psi / np.sqrt(psi)) * mod
    np.testing.assert_allclose(f_oscillatory(c1, c2, psi), ref_osc, rtol=0, atol=0)


def test_scalar_laws_at_zero_and_odd():
    assert f_classical(0.0) == 0.0
    assert f_oscillatory(np.sin(0.01), 0.02, 0.0) == 0.0
    for psi in (1e-12, 0.03, 0.25):
        assert f_classical(-psi) == -f_classical(psi)
        assert f_oscillatory(np.sin(0.01), 0.02, -psi) == -f_oscillatory(
            np.sin(0.01), 0.02, psi)


def test_grid_vorticity_matches_scalar():
    psi = np.linspace(-0.25, 0.25, 321)
    got = vorticity_grid("classical", 0.0, 0.0, psi)
    ref = np.array([f_classical(p) for p in psi])
    np.testing.assert_array_equal(got, ref)
    c1, c2 = np.sin(0.01), 0.02
    got = vorticity_grid("oscillatory", c1, c2, psi)
    ref = np.array([f_oscillatory(c1, c2, p) for p in psi])
    np.testing.assert_array_equal(got, ref)


def test_prefix_moments_against_direct_sums():
    rng = np.random.default_rng(7)
    nodes = np.sort(rng.uniform(1.0, 2.0, 40))
    nodes[0], nodes[-1] = 1.0, 2.0
    values = rng.normal(size=40)
    lw = np.log(nodes / nodes[0])
    lw[0] = 0.0
    A, B = prefix_moments(prefix_geometry(nodes), lw, values)
    assert A[0] == 0.0 and B[0] == 0.0

    # A accumulates int tau*v dtau of the piecewise-linear interpolant;
    # Gauss-Legendre resolves each piece to machine precision
    x, w = np.polynomial.legendre.leggauss(50)
    a_ref = np.zeros(40)
    for i in range(39):
        a, b = nodes[i], nodes[i + 1]
        va, vb = values[i], values[i + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        tau = mid + half * x
        vlin = va + (vb - va) * (tau - a) / (b - a)
        a_ref[i + 1] = a_ref[i] + half * np.sum(w * tau * vlin)
    np.testing.assert_allclose(A, a_ref, rtol=1e-13, atol=1e-15)

    # B follows from log(r/r0)*A[i] - B[i] being the kernel integral at node
    # i; take a Gauss-Legendre reference for the latter
    for idx in (1, 13, 39):
        r_end, total = nodes[idx], 0.0
        for i in range(idx):
            a, b = nodes[i], nodes[i + 1]
            va, vb = values[i], values[i + 1]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            tau = mid + half * x
            vlin = va + (vb - va) * (tau - a) / (b - a)
            total += half * np.sum(w * tau * np.log(r_end / tau) * vlin)
        np.testing.assert_allclose(lw[idx] * A[idx] - B[idx], total,
                                   rtol=0, atol=1e-14)
