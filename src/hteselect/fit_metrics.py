"""Heuristic estimator-quality metrics plus the ground-truth evaluation
metrics used by the benchmark harness.

The four heuristic metrics score a fitted effect estimator without ground
truth: an outcome/propensity residual product form, nearest-neighbor
imputed effects, reference-estimator imputed effects, and doubly robust
imputed effects.  Each is a mean of squares, so values are nonnegative and
zero exactly when the defining residuals vanish.  The three imputation
metrics are one function, ``plugin_tau``, against different imputations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._kernels import nn_opposite_arm
from .errors import DegenerateArms, LengthMismatch, NumericError
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


def tau_risk(tau_hat, y, t, m_hat, p_hat) -> float:
    """Mean of ((y - m_hat) - (t - p_hat) * tau_hat)^2.

    ``m_hat`` is a per-unit outcome estimate and ``p_hat`` a per-unit
    propensity estimate, both from models fit on held-out data.
    """
    tau_hat, y, t, m_hat, p_hat = _as_vectors(tau_hat, y, t, m_hat, p_hat)
    return residual_risk(tau_hat, y - m_hat, t, p_hat)


def residual_risk(tau_hat, y_resid, t, p_hat) -> float:
    """``tau_risk`` from the residuals y - m_hat of float vectors whose
    lengths are not checked again; the propensity guard still runs."""
    _check_propensities(p_hat)
    resid = y_resid - (t - p_hat) * tau_hat
    return float(np.add.reduce(resid * resid) / resid.shape[0])  # np.mean, bit for bit


def nn_imputed_effects(x, y, t) -> np.ndarray:
    """Matched-neighbor effect imputations (2t - 1) * (y - y_nn).

    The neighbor is each unit's Euclidean nearest in the opposite arm,
    computed on standardized features.
    """
    x = np.asarray(x, dtype=np.float64)
    y, t = _as_vectors(y, t)
    if not ((t == 1).any() and (t == 0).any()):
        raise DegenerateArms("matching needs both arms nonempty")
    nn = nn_opposite_arm(_standardize(x)[0], t)
    return (2.0 * t - 1.0) * (y - y[nn])


def plugin_tau(tau_hat, tau_tilde) -> float:
    """Mean squared gap to imputed effects: a reference estimator's
    (PluginTau), ``nn_imputed_effects`` (NNPEHE) or
    ``doubly_robust_effects`` (CFCV)."""
    tau_hat, tau_tilde = _as_vectors(tau_hat, tau_tilde)
    return float(np.mean((tau_tilde - tau_hat) ** 2))


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


def mse_true(tau_hat, tau) -> float:
    """Ground-truth mean squared error of the effect estimate."""
    tau_hat, tau = _as_vectors(tau_hat, tau)
    return float(np.mean((tau - tau_hat) ** 2))


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
