"""Exception types shared across the package."""

from __future__ import annotations


class StreamuniqError(Exception):
    """Base class for all package-specific errors."""


class DomainError(StreamuniqError, ValueError):
    """An argument lies outside the mathematically admissible domain."""


class ConfigError(StreamuniqError):
    """A run configuration file or override is malformed or inconsistent."""


class ModelValidationError(StreamuniqError):
    """A vorticity model fails one of its structural requirements."""


class NonConvergenceError(StreamuniqError):
    """Fixed-point iteration exhausted its budget without meeting tolerance.

    Carries the diagnostics accumulated so far in ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class WindowCollapseError(StreamuniqError):
    """An iterate left the admissible band (0, delta] at the first interior node,
    or the certification window holds no interior node."""


class StepSizeUnderflowError(StreamuniqError):
    """The adaptive controller demanded a step below the configured minimum.

    ``r_at`` records where the integration stalled.
    """

    def __init__(self, message: str, r_at: float):
        super().__init__(message)
        self.r_at = r_at

