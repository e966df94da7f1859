"""Heuristic estimator-quality metrics plus the ground-truth evaluation
metrics used by the benchmark harness.

The four heuristic metrics score a fitted effect estimator without ground
truth: an outcome/propensity residual product form, nearest-neighbor
imputed effects, reference-estimator imputed effects, and doubly robust
imputed effects.  Each is a mean of squares, so values are nonnegative and
zero exactly when the defining residuals vanish.  The three imputation
metrics and the ground-truth MSE are one function, ``effect_mse``, against
different reference effects.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._kernels import nn_opposite_arm
from .errors import LengthMismatch, NumericError
from .supervised import _standardize

METRIC_KINDS = ("TauRisk", "NNPEHE", "PluginTau", "CFCV")


def _as_vectors(*arrays):
    out = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
    n = out[0].shape[0]
    if any(v.shape[0] != n for v in out):
        raise LengthMismatch("metric inputs must have equal length")
    return out


def _check_propensities(p_hat):
    # min and max propagate NaN, so that a NaN propensity fails too
    low = np.minimum.reduce(p_hat, initial=np.inf)
    if not (low > 0.0 and np.maximum.reduce(p_hat, initial=-np.inf) < 1.0):
        raise NumericError("propensities must lie strictly inside (0, 1)")


def residual_risk(tau_hat, y_resid, t, p_hat) -> float:
    """The TauRisk metric: mean of (y_resid - (t - p_hat) * tau_hat)^2.

    ``y_resid`` is the outcome residual y - m_hat and ``p_hat`` a per-unit
    propensity estimate, both from models fit on held-out data.  The inputs
    are float vectors of one length, which is not checked; the propensities
    must lie strictly inside (0, 1).
    """
    _check_propensities(p_hat)
    resid = y_resid - (t - p_hat) * tau_hat
    return float(np.add.reduce(resid * resid) / resid.shape[0])  # np.mean, bit for bit


def nn_imputed_effects(x, y, t) -> np.ndarray:
    """Matched-neighbor effect imputations (2t - 1) * (y - y_nn).

    The neighbor is each unit's Euclidean nearest in the opposite arm,
    computed on standardized features; ``nn_opposite_arm`` raises
    DegenerateArms for a label other than 0 or 1 or an empty arm.
    """
    x = np.asarray(x, dtype=np.float64)
    y, t = _as_vectors(y, t)
    nn = nn_opposite_arm(_standardize(x)[0], t)
    return (2.0 * t - 1.0) * (y - y[nn])


def effect_mse(tau_hat, reference) -> float:
    """Mean squared gap between an effect estimate and reference effects:
    the true effects (ground-truth MSE) or imputed ones, a reference
    estimator's (PluginTau), ``nn_imputed_effects`` (NNPEHE) or
    ``doubly_robust_effects`` (CFCV)."""
    tau_hat, reference = _as_vectors(tau_hat, reference)
    return float(np.mean((reference - tau_hat) ** 2))


def doubly_robust_effects(y, t, m1_hat, m0_hat, p_hat) -> np.ndarray:
    """AIPW imputations m1 - m0 + t(y - m1)/p - (1 - t)(y - m0)/(1 - p)."""
    y, t, m1_hat, m0_hat, p_hat = _as_vectors(y, t, m1_hat, m0_hat, p_hat)
    _check_propensities(p_hat)
    return (
        m1_hat
        - m0_hat
        + t * (y - m1_hat) / p_hat
        - (1.0 - t) * (y - m0_hat) / (1.0 - p_hat)
    )


class InclusionError(NamedTuple):
    value: float
    defined: bool


def inclusion_error(selected, post_mask) -> InclusionError:
    """Fraction of post-treatment columns that a selector kept.

    ``selected`` holds column indices, ``post_mask`` is the boolean
    post-treatment indicator per column.  With no post-treatment columns the
    ratio is undefined; (0.0, defined=False) is returned and callers exclude
    such rows from averages.
    """
    post_mask = np.asarray(post_mask, dtype=bool)
    forbidden = set(np.flatnonzero(post_mask).tolist())
    if not forbidden:
        return InclusionError(0.0, False)
    kept = forbidden.intersection(int(c) for c in selected)
    return InclusionError(len(kept) / len(forbidden), True)


class RankSummary(NamedTuple):
    mean: float
    sd: float
    count: int


def mean_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks, ties sharing the mean of their positions.

    Ranks of k values always sum to k(k+1)/2; any NaN makes every rank NaN.
    """
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    below = (values[None, :] < values[:, None]).sum(axis=1)
    tied = (values[None, :] == values[:, None]).sum(axis=1)
    return below + (tied + 1) / 2.0
