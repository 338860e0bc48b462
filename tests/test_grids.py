import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamuniq import DomainError, RadialGrid, VorticityModel, picard_solve, rk_solve
from streamuniq.cli import main
from streamuniq.verify import compute_r2


def test_uniform_basic():
    grid = RadialGrid.uniform(1.0, 2.0, 5)
    np.testing.assert_allclose(grid.nodes, [1.0, 1.25, 1.5, 1.75, 2.0], rtol=0, atol=0)
    assert grid.r0 == 1.0
    assert grid.r_max == 2.0
    assert grid.n == 5


def test_geometric_ratio_and_endpoints():
    grid = RadialGrid.geometric(1.0, 2.0, 9, ratio=0.5)
    h = np.diff(grid.nodes)
    np.testing.assert_allclose(h[:-1] / h[1:], 0.5, rtol=1e-12)
    assert grid.nodes[0] == 1.0
    assert grid.nodes[-1] == 2.0


def test_geometric_auto_ratio_respects_span_floor():
    grid = RadialGrid.geometric(1.0, 2.0, 2049)
    h = grid.prefix_geometry[0]
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


def test_prefix_geometry_is_cached_and_read_only():
    grid = RadialGrid.geometric(1.0, 2.0, 65)
    geometry = grid.prefix_geometry
    again = grid.prefix_geometry
    assert all(a is b for a, b in zip(again, geometry))
    assert [arr.shape for arr in geometry] == [(64,)] * 5
    # the first entry is the spacing h = b - a of each subinterval
    np.testing.assert_array_equal(geometry[0], np.diff(grid.nodes))
    for arr in geometry:
        first = arr[0]
        with pytest.raises(ValueError):
            arr[0] = 0.0
        assert arr[0] == first


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


@pytest.mark.parametrize("r0", [0.5, np.nan, -np.inf])
def test_one_r0_rule_and_message_everywhere(r0, tmp_path, capsys):
    message = f"r0 must be finite and >= 1, got {float(r0)!r}"
    model = VorticityModel.classical()
    grid = RadialGrid.uniform(1.0, 2.0, 9)
    calls = [
        lambda: RadialGrid(np.array([r0, 2.0])),
        lambda: RadialGrid.uniform(r0, 2.0, 9),
        lambda: RadialGrid.geometric(r0, 2.0, 9),
        lambda: picard_solve(model, r0, 1.0, grid),
        lambda: rk_solve(model, r0, 1.0, 2.0),
        lambda: compute_r2(r0, 1.0, model.holder_C),
    ]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message
    if r0 == 0.5:
        assert main(["integrate", "--r0", "0.5", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("build, message", [
    (lambda: RadialGrid.geometric(1.0, 2.0, 2), "a geometric grid needs at least three nodes"),
    (lambda: RadialGrid.uniform(1.0, np.inf, 5), "grid bounds must be finite"),
])
def test_factory_guard_messages(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_geometric_invalid_ratio():
    for ratio in (0.0, -0.5, 1.5e-7, np.nan):
        with pytest.raises(DomainError):
            RadialGrid.geometric(1.0, 2.0, 9, ratio=ratio)


def test_repr_names_the_grid():
    assert repr(RadialGrid.uniform(1.0, 2.0, 5)) == (
        "RadialGrid(kind='uniform', n=5, r0=1.0, r_max=2.0, ratio=None)")
    assert repr(RadialGrid.geometric(1.0, 1.5, 9, ratio=0.5)) == (
        "RadialGrid(kind='geometric', n=9, r0=1.0, r_max=1.5, ratio=0.5)")


def test_validate_roundtrip():
    grid = RadialGrid.geometric(1.0, 2.0, 65, ratio=0.95)
    # the constructor's checks accept the nodes of a built grid as given
    np.testing.assert_array_equal(RadialGrid(grid.nodes).nodes, grid.nodes)
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
    h = np.diff(grid.nodes)
    assert np.all(h > 0)
    # the grading is uniform up to the ~eps*r_max cancellation noise that
    # differencing cumsum-built nodes leaves in each spacing
    drift = np.abs(h[:-1] / h[1:] - ratio)
    cancel = 64.0 * np.finfo(np.float64).eps * grid.r_max / float(h.min())
    assert float(drift.max()) <= ratio * max(1.0e-12, cancel)
