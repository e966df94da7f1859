"""Exception types shared across the package."""


class HteSelectError(Exception):
    """Base class for all package-specific errors."""


class NoValidPair(HteSelectError):
    """No (treatment, outcome) pair satisfies the requested structure."""


class InfeasibleSpec(HteSelectError):
    """Graph resampling exhausted its retry budget."""


class NotPositiveDefinite(HteSelectError):
    """Noise covariance is numerically too close to singular."""


class DegenerateArms(HteSelectError):
    """A treatment arm required by an estimator is empty."""


class DimensionMismatch(HteSelectError):
    """Prediction input does not match the fitted feature dimension."""


class LengthMismatch(HteSelectError):
    """Metric inputs have inconsistent lengths."""


class ConstantColumn(HteSelectError):
    """Pairwise orientation requires non-constant columns."""


class ConfigError(HteSelectError):
    """Invalid experiment or CLI configuration."""


class NumericError(HteSelectError):
    """Numeric inputs a computation cannot use (non-finite values, too few rows)."""
