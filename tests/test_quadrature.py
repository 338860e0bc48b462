import math

import numpy as np
import pytest

from streamuniq import DomainError, RadialGrid, _kernels, kernel_integral_all, kernel_prefix

# closed forms of int_1^R tau*log(R/tau)*v(tau) dtau at R = 2
I_CONST = 0.40342640972002736   # v = 1:      3/4 - log(2)/2
I_TAU = 0.5467287175911294      # v = tau:    7/9 - log(2)/3
I_INV = 0.3068528194400547      # v = 1/tau:  1 - log(2)
I_SQ = 0.7642132048600137       # v = tau^2:  15/16 - log(2)/4
I_LIN = 0.6993760885367283      # v = 2 - 0.75*(tau - 1)


def test_closed_forms_match_literals():
    np.testing.assert_allclose(I_CONST, 0.75 - 0.5 * math.log(2.0), rtol=0, atol=0)
    np.testing.assert_allclose(I_TAU, 7.0 / 9.0 - math.log(2.0) / 3.0, rtol=0, atol=0)
    np.testing.assert_allclose(I_INV, 1.0 - math.log(2.0), rtol=0, atol=0)
    np.testing.assert_allclose(I_SQ, 0.9375 - 0.25 * math.log(2.0), rtol=0, atol=0)


def _gl_oracle(nodes, values, r_end):
    """Gauss-Legendre 50-point reference for the piecewise-linear integrand."""
    x, w = np.polynomial.legendre.leggauss(50)
    total = 0.0
    for a, b, va, vb in zip(nodes[:-1], nodes[1:], values[:-1], values[1:]):
        if a >= r_end:
            break
        b = min(b, r_end)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        tau = mid + half * x
        vlin = va + (vb - va) * (tau - a) / (b - a)
        total += half * np.sum(w * tau * np.log(r_end / tau) * vlin)
    return total


@pytest.mark.parametrize("make_grid", [
    lambda: RadialGrid.uniform(1.0, 2.0, 17),
    lambda: RadialGrid.geometric(1.0, 2.0, 17, ratio=0.93),
])
def test_linear_integrands_are_exact(make_grid):
    grid = make_grid()
    values = 2.0 - 0.75 * (grid.nodes - 1.0)
    got = kernel_integral_all(grid, values)[-1]
    np.testing.assert_allclose(got, I_LIN, rtol=0, atol=5e-16)


@pytest.mark.parametrize("r_index", [1, 5, 16, 32])
def test_matches_gauss_legendre_per_piece(r_index):
    grid = RadialGrid.geometric(1.0, 2.0, 33, ratio=0.95)
    values = np.cos(3.0 * grid.nodes) + 1.5
    oracle = _gl_oracle(grid.nodes, values, grid.nodes[r_index])
    got = kernel_integral_all(grid, values)[r_index]
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-15)


def test_constant_on_graded_grid():
    grid = RadialGrid.geometric(1.0, 2.0, 4097)
    got = kernel_integral_all(grid, np.ones(grid.n))[-1]
    np.testing.assert_allclose(got, I_CONST, rtol=0, atol=1e-10)


def test_smooth_integrand_on_uniform_grid():
    grid = RadialGrid.uniform(1.0, 2.0, 2049)
    got = kernel_integral_all(grid, grid.nodes ** 2)[-1]
    np.testing.assert_allclose(got, I_SQ, rtol=0, atol=1e-7)


def test_second_order_convergence():
    errs = []
    for n in (513, 1025):
        grid = RadialGrid.uniform(1.0, 2.0, n)
        got = kernel_integral_all(grid, 1.0 / grid.nodes)[-1]
        errs.append(abs(got - I_INV))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_prefix_and_all_consistency():
    grid = RadialGrid.geometric(1.0, 2.0, 65, ratio=0.96)
    values = np.sin(grid.nodes) + 2.0
    every = kernel_integral_all(grid, values)
    assert every[0] == 0.0
    A, B = kernel_prefix(grid, values)
    recomposed = grid.log_weights * A - B
    np.testing.assert_allclose(recomposed, every, rtol=0, atol=1e-18)


def test_truncation_ignores_later_nodes():
    grid = RadialGrid.uniform(1.0, 2.0, 33)
    values = np.cos(grid.nodes)
    tampered = values.copy()
    tampered[20:] = 1e6
    assert kernel_integral_all(grid, values)[10] == kernel_integral_all(grid, tampered)[10]


def test_positivity_for_positive_integrand():
    grid = RadialGrid.geometric(1.0, 1.5, 129)
    every = kernel_integral_all(grid, np.full(grid.n, 0.3))
    assert np.all(every[1:] > 0.0)
    assert np.all(np.diff(every) > 0.0)


def test_shape_mismatch_rejected():
    grid = RadialGrid.uniform(1.0, 2.0, 9)
    with pytest.raises(DomainError):
        kernel_integral_all(grid, np.ones(8))


def _inline_prefix_moments(nodes, log_weights, values):
    # the rule as it read before its node-only half was cached on the grid
    a = nodes[:-1]
    b = nodes[1:]
    h = b - a
    va = values[:-1]
    s = (values[1:] - va) / h
    lab = np.log1p(h / a)
    t1 = 0.5 * b * b * lab - 0.25 * h * (a + b)
    t2 = (b * b * b) * lab / 3.0 - h * (b * b + a * b + a * a) / 9.0 - a * t1
    p1 = va * h * (a + 0.5 * h) + s * h * h * (0.5 * a + h / 3.0)
    p2 = log_weights[:-1] * p1 + va * t1 + s * t2
    A = np.concatenate(([0.0], np.cumsum(p1)))
    B = np.concatenate(([0.0], np.cumsum(p2)))
    return A, B


@pytest.mark.parametrize("make_grid", [
    lambda: RadialGrid.geometric(1.0, 1.5, 2049),
    lambda: RadialGrid.geometric(2.5, 3.75, 131073),
    lambda: RadialGrid.uniform(1.0, 2.0, 1025),
    lambda: RadialGrid.geometric(1.0, 2.0, 3),
])
@pytest.mark.parametrize("kind", ["random", "sqrt_near_r0"])
def test_cached_geometry_reproduces_the_inline_rule(make_grid, kind):
    grid = make_grid()
    if kind == "random":
        values = np.random.default_rng(grid.n).normal(size=grid.n)
    else:
        # the classical law along the leading log profile: a square root in
        # r - r0 that the graded grid resolves
        values = -np.sqrt(0.8 * grid.log_weights) + 0.8 * grid.log_weights
    ref_a, ref_b = _inline_prefix_moments(grid.nodes, grid.log_weights, values)
    for _ in range(2):  # the first call fills the cache, the second reads it
        A, B = kernel_prefix(grid, values)
        assert np.array_equal(A, ref_a) and np.array_equal(B, ref_b)


def test_kernel_prefix_computes_the_geometry_once_per_grid(monkeypatch):
    calls = []
    original = _kernels.prefix_geometry

    def counting(nodes):
        calls.append(nodes.size)
        return original(nodes)

    monkeypatch.setattr(_kernels, "prefix_geometry", counting)
    grid = RadialGrid.geometric(1.0, 2.0, 65)
    for values in (np.ones(65), np.sin(grid.nodes)):
        kernel_prefix(grid, values)
    kernel_integral_all(grid, np.cos(grid.nodes))
    assert calls == [65]
