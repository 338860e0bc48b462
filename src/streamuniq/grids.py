"""Radial grids on [r0, r_max] with optional geometric grading toward r0."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# smallest admissible leftmost/rightmost spacing ratio; keeps the graded grid
# representable in float64 for any practical node count
_MIN_SPAN_RATIO = 1.0e-6


class RadialGrid:
    """Strictly increasing nodes with cached kernel geometry.

    ``kind`` is "uniform" or "geometric".  Geometric grids satisfy
    h_i / h_{i+1} = ratio < 1, so spacings shrink toward r0 where the
    weighted quantities of interest are hardest to resolve.
    """

    __slots__ = ("nodes", "kind", "ratio", "_log_weights", "_spacings")

    def __init__(self, nodes: np.ndarray, kind: str = "explicit", ratio: float | None = None):
        nodes = np.ascontiguousarray(nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < 2:
            raise DomainError("a grid needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise DomainError("grid nodes must be finite")
        if nodes[0] < 1.0:
            raise DomainError(f"r0 must be >= 1, got {nodes[0]!r}")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("grid nodes must increase strictly")
        self.nodes = nodes
        self.kind = kind
        self.ratio = ratio
        self._log_weights = None
        self._spacings = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, r0: float, r_max: float, n: int) -> "RadialGrid":
        _check_span(r0, r_max, n)
        return cls(np.linspace(r0, r_max, n), kind="uniform")

    @classmethod
    def geometric(cls, r0: float, r_max: float, n: int, ratio: float | None = None) -> "RadialGrid":
        """Spacings h_i = h_{n-2} * ratio^(n-2-i); ratio=None picks the
        strongest grading whose total spacing ratio stays above 1e-6."""
        _check_span(r0, r_max, n)
        if n < 3:
            raise DomainError("a geometric grid needs at least three nodes")
        if ratio is None:
            ratio = max(0.9, _MIN_SPAN_RATIO ** (1.0 / (n - 2)))
        if not (0.0 < ratio <= 1.0):
            raise DomainError("ratio must lie in (0, 1]")
        weights = ratio ** np.arange(n - 2, -1, -1, dtype=np.float64)
        spacings = weights * ((r_max - r0) / weights.sum())
        nodes = np.empty(n, dtype=np.float64)
        nodes[0] = r0
        np.cumsum(spacings, out=nodes[1:])
        nodes[1:] += r0
        nodes[-1] = r_max
        return cls(nodes, kind="geometric", ratio=ratio)

    # -- geometry -----------------------------------------------------------

    @property
    def r0(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def spacings(self) -> np.ndarray:
        if self._spacings is None:
            self._spacings = np.diff(self.nodes)
        return self._spacings

    @property
    def log_weights(self) -> np.ndarray:
        """ln(r_i / r0), exactly 0 at the first node."""
        if self._log_weights is None:
            self._log_weights = np.log1p((self.nodes - self.nodes[0]) / self.nodes[0])
        return self._log_weights

    def index_at(self, r: float) -> int:
        """Index of the rightmost node <= r (at least 0)."""
        if r < self.nodes[0]:
            raise DomainError(f"radius {r!r} lies left of the grid")
        return max(0, int(np.searchsorted(self.nodes, r, side="right")) - 1)

    def validate(self) -> None:
        """Re-check the structural invariants, including grading uniformity."""
        if not np.all(np.diff(self.nodes) > 0.0):
            raise DomainError("grid nodes must increase strictly")
        if self.kind == "geometric":
            h = self.spacings
            drift = np.abs(h[:-1] / h[1:] - self.ratio)
            # spacings are recovered by differencing cumsum-built nodes, so
            # each carries ~eps*r_max of absolute cancellation noise; scale
            # the uniformity bound to the smallest piece
            cancel = 64.0 * np.finfo(np.float64).eps * self.r_max / float(h.min())
            if float(drift.max()) > self.ratio * max(1.0e-12, cancel):
                raise DomainError("geometric spacing ratio drifted beyond tolerance")

    def __repr__(self) -> str:
        return (f"RadialGrid(kind={self.kind!r}, n={self.n}, r0={self.r0!r}, "
                f"r_max={self.r_max!r}, ratio={self.ratio!r})")


def _check_span(r0: float, r_max: float, n: int) -> None:
    if not (np.isfinite(r0) and np.isfinite(r_max)):
        raise DomainError("grid bounds must be finite")
    if r0 < 1.0:
        raise DomainError(f"r0 must be >= 1, got {r0!r}")
    if r_max <= r0:
        raise DomainError("r_max must exceed r0")
    if n < 2:
        raise DomainError("a grid needs at least two nodes")
