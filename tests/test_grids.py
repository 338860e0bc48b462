import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamuniq import DomainError, RadialGrid


def test_uniform_basic():
    grid = RadialGrid.uniform(1.0, 2.0, 5)
    np.testing.assert_allclose(grid.nodes, [1.0, 1.25, 1.5, 1.75, 2.0], rtol=0, atol=0)
    assert grid.r0 == 1.0
    assert grid.r_max == 2.0
    assert grid.n == 5


def test_geometric_ratio_and_endpoints():
    grid = RadialGrid.geometric(1.0, 2.0, 9, ratio=0.5)
    h = grid.spacings
    np.testing.assert_allclose(h[:-1] / h[1:], 0.5, rtol=1e-12)
    assert grid.nodes[0] == 1.0
    assert grid.nodes[-1] == 2.0


def test_geometric_auto_ratio_respects_span_floor():
    grid = RadialGrid.geometric(1.0, 2.0, 2049)
    h = grid.spacings
    # the 1e-6 design floor holds up to diff-of-cumsum cancellation
    assert h.min() / h.max() >= 1e-6 * (1.0 - 1e-6)
    np.testing.assert_allclose(h[:-1] / h[1:], grid.ratio, rtol=1e-6)
    # auto ratio never refines more aggressively than 0.9 per step
    assert grid.ratio >= 0.9


def test_log_weights_values():
    grid = RadialGrid.uniform(1.0, 2.0, 3)
    expected = np.log(grid.nodes / grid.nodes[0])
    np.testing.assert_allclose(grid.log_weights, expected, rtol=1e-15)
    assert grid.log_weights[0] == 0.0


def test_index_at():
    grid = RadialGrid.uniform(1.0, 2.0, 5)
    assert grid.index_at(1.0) == 0
    assert grid.index_at(1.3) == 1
    assert grid.index_at(1.25) == 1
    assert grid.index_at(2.0) == 4
    # right of the grid clamps to the last node; left of it is an error
    assert grid.index_at(2.5) == 4
    with pytest.raises(DomainError):
        grid.index_at(0.5)


@pytest.mark.parametrize("bad_nodes", [
    [1.0],
    [1.0, 1.0, 2.0],
    [1.0, 1.5, 1.4],
    [0.5, 1.0, 2.0],
    [1.0, np.inf, 2.0],
    [1.0, np.nan, 2.0],
])
def test_invalid_node_arrays(bad_nodes):
    with pytest.raises(DomainError):
        RadialGrid(np.asarray(bad_nodes, dtype=np.float64))


@pytest.mark.parametrize("ctor_kwargs", [
    dict(r0=2.0, r_max=1.0, n=8),
    dict(r0=1.0, r_max=2.0, n=1),
    dict(r0=0.5, r_max=2.0, n=8),
])
def test_invalid_factory_arguments(ctor_kwargs):
    with pytest.raises(DomainError):
        RadialGrid.uniform(**ctor_kwargs)
    with pytest.raises(DomainError):
        RadialGrid.geometric(**ctor_kwargs)


def test_geometric_invalid_ratio():
    for ratio in (0.0, -0.5, 1.5e-7, np.nan):
        with pytest.raises(DomainError):
            RadialGrid.geometric(1.0, 2.0, 9, ratio=ratio)


def test_validate_roundtrip():
    grid = RadialGrid.geometric(1.0, 2.0, 65, ratio=0.95)
    grid.validate()
    tampered = grid.nodes.copy()
    tampered[3] = tampered[2]
    with pytest.raises(DomainError):
        RadialGrid(tampered)


@settings(max_examples=40, deadline=None)
@given(
    r0=st.floats(min_value=1.0, max_value=4.0),
    span=st.floats(min_value=1e-3, max_value=3.0),
    n=st.integers(min_value=2, max_value=257),
)
def test_uniform_properties(r0, span, n):
    grid = RadialGrid.uniform(r0, r0 + span, n)
    assert grid.n == n
    assert grid.nodes[0] == r0
    assert grid.nodes[-1] == r0 + span
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(np.isfinite(grid.log_weights))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=257),
    ratio=st.floats(min_value=0.9, max_value=1.0),
)
def test_geometric_properties(n, ratio):
    grid = RadialGrid.geometric(1.0, 2.0, n, ratio=ratio)
    assert grid.nodes[0] == 1.0
    assert grid.nodes[-1] == 2.0
    assert np.all(np.diff(grid.nodes) > 0)
    grid.validate()
