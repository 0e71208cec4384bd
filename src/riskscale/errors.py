"""Exception hierarchy shared by all riskscale modules."""


class RiskscaleError(Exception):
    """Base class for all errors raised by this package; ``param`` names the
    parameter at fault when one alone is."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class ParameterError(RiskscaleError, ValueError):
    """A scalar or vector parameter violates its domain (e.g. shape <= 0)."""


class ShapeError(RiskscaleError, ValueError):
    """Array dimensions are inconsistent with the requested operation."""


class SingularMatrixError(RiskscaleError):
    """A matrix required to be invertible is numerically singular.

    Raised instead of falling back to a pseudo-inverse or regularization.
    """


class DegenerateDenominatorError(RiskscaleError):
    """Too few Monte Carlo draws carry prior density mass at the query point."""


class InsufficientTailDataError(RiskscaleError):
    """Not enough threshold exceedances to form a tail ratio estimate."""


class UnsupportedModelError(RiskscaleError):
    """The model is outside the regime a tail-limit operation supports."""


class ConfigError(RiskscaleError, ValueError):
    """A run configuration file failed to parse or validate."""


class OutputError(RiskscaleError):
    """The run's output file or stream could not be opened or written."""
