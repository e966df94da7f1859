"""Exception types shared across the package, and ``check_arms``, its one treatment-label rule."""

import numpy as np


class HteSelectError(Exception):
    """Base class for all package-specific errors."""


class NoValidPair(HteSelectError):
    """No (treatment, outcome) pair satisfies the requested structure."""


class InfeasibleSpec(HteSelectError):
    """Graph resampling exhausted its retry budget."""


class NotPositiveDefinite(HteSelectError):
    """Noise covariance is numerically too close to singular."""


class DegenerateArms(HteSelectError):
    """A treatment label is not 0 or 1, or a treatment arm is empty."""


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


def check_arms(t, where: str) -> None:
    """Raise ``DegenerateArms``, which nothing else raises, unless every label of
    ``t`` is 0 or 1 and both arms occur; ``where`` names the caller's context."""
    t = np.asarray(t)
    n_treated, n_control = np.count_nonzero(t == 1), np.count_nonzero(t == 0)
    if n_treated + n_control != t.size:
        raise DegenerateArms(f"{where}: treatment labels must be 0 or 1")
    if not (n_treated and n_control):
        raise DegenerateArms(f"{where} lost a treatment arm")
