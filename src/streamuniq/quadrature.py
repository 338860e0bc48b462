"""Product integration of the logarithmic Volterra kernel on a radial grid.

For samples v_j of a function v on grid nodes, the operator value

    K(r_i) = int_{r0}^{r_i} tau * ln(r_i / tau) * v(tau) dtau

is computed for the piecewise-linear interpolant of v.  The kernel is split
as ln(r_i/tau) = ln(r_i/r0) - ln(tau/r0), which turns the whole family
{K(r_i)} into two prefix sums (see ``_kernels.prefix_moments``) and keeps the
cost at O(n) for all nodes together.  The node-only half of the rule is
computed once per grid and cached on it (``RadialGrid.prefix_geometry``).
Second order in the mesh size holds for smooth v; grading the grid toward r0
recovers it for the square-root-type integrands this package feeds in.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DomainError
from .grids import RadialGrid


def kernel_prefix(grid: RadialGrid, values):
    """Prefix moments (A, B) with K_i = log_weights_i * A_i - B_i."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != grid.nodes.shape:
        raise DomainError("values must match the grid nodes")
    if not np.all(np.isfinite(values)):
        raise DomainError("values must be finite")
    return _kernels.prefix_moments(grid.prefix_geometry, grid.log_weights, values)


def kernel_integral_all(grid: RadialGrid, values) -> np.ndarray:
    """K(r_i) for every node at once; K[0] = 0."""
    A, B = kernel_prefix(grid, values)
    return grid.log_weights * A - B
