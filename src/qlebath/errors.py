"""Exception types shared across the package."""


class QlebathError(Exception):
    """Base class for package-specific failures."""


class QuadratureError(QlebathError):
    """Adaptive integration failed to reach the requested tolerance.

    Carries the achieved absolute error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class PoleEvaluationError(QlebathError):
    """Response function evaluated too close to a pole, or root residuals failed."""


class AcausalModelError(QlebathError):
    """Operation requires a causal model (bare mass >= 0) and none was given."""


class StepSizeError(QlebathError):
    """Fixed-step integration failed its step check or left the finite range."""


class GridError(QlebathError):
    """Grid too coarse for the requested finite-difference accuracy."""


class FitError(QlebathError):
    """No acceptable fit regime found in the data."""


class InsufficientStatisticsError(QlebathError):
    """Ensemble too small for the statistical comparison being attempted."""


class ConfigError(QlebathError):
    """Invalid run configuration. ``key`` names the offending entry when known."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class AcausalCutoffWarning(UserWarning):
    """Cutoff frequency above the runaway threshold: bare mass < 0."""
