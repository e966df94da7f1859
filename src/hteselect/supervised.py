"""Minimal regression core: ridge least squares and IRLS logistic regression.

Every estimator and fit metric in the package is built on these two fits.
Features are standardized with statistics of the fitting rows only, and a
fitted ``LinearModel`` keeps its weights in that standardized space and
predicts one way: its own weights on rows standardized by its own
statistics (``predict``; ``predict_standardized`` for rows already so).
The intercept is never penalized.

Ridge solves the centered normal equations of the standardized design,
(Z'Z + lam*I) b = Z'y, by Cholesky; because Z is centered the intercept is
the mean of y.  ``Moments`` holds Z'Z, Z'y and the column moments of one
block of rows, so a ridge fit on any column subset of those rows is a
sub-block solve (``Moments.solve``) that never touches the rows again, for
the block's own target or one whose Z'y a caller derives; built from a
``Standardized`` design, it shares that design's columns with logistic
fits on the same rows.  ``lstsq`` runs only as the fallback when the
Cholesky factorization fails.

Logistic regression is IRLS on the standardized design (``Standardized``):
steps are accepted by a concavity certificate or else halved on the exact
log-likelihood, and the loop stops in Newton's quadratic regime (see
``fit_logistic``).  The fitted model keeps the penalized Hessian of its last
Newton iteration, from which a start for the same fit on fewer columns is
projected (``projected_start``).  ``LogisticBlock`` is the logistic
counterpart of ``Moments``: fits on column subsets of fixed rows, each
warm-started from a stored fit one column away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .errors import DimensionMismatch, NumericError, check_arms

OUTCOME_LAMBDA = 1e-3
PROPENSITY_LAMBDA = 1e-2
PROB_CLIP = (0.01, 0.99)

_IRLS_TOL = 1e-8
# a full Newton step below this leaves a next step of about its square
_IRLS_QUAD_TOL = 1e-5
_IRLS_MAX_ITER = 100
# an accepted step may lower the penalized log-likelihood by at most this
_ASCENT_TOL = 1e-12
# a standard deviation below this, or not finite, may have lost its squares to
# underflow or overflow (see ``column_moments``)
_TINY_SCALE = 2.0**-500


@dataclass
class LinearModel:
    """A fitted linear or logistic model.

    ``w_std`` are the fit's weights in the standardized space of its rows
    (intercept first, then the slopes of the columns standardized by
    ``mu``/``scale``), the weights every prediction applies; ``weights``
    are the same model in original units, folded back on first use.
    ``feature_dim``, the column count the model predicts on, is that of
    ``mu``.  Logistic models keep the standardized penalized Hessian of the
    last IRLS iteration in ``hessian``.
    """

    w_std: np.ndarray
    kind: str  # "regression" or "logistic"
    mu: np.ndarray
    scale: np.ndarray
    converged: bool = True
    hessian: np.ndarray | None = None

    @property
    def feature_dim(self) -> int:
        return len(self.mu)

    @cached_property
    def weights(self) -> np.ndarray:
        return _fold_back(self.w_std, self.mu, self.scale)


def column_moments(x: np.ndarray):
    """Mean and standard deviation of each column of ``x``, or of a 1-d ``x``.

    They are ``x.mean(axis=0)`` and ``x.std(axis=0)`` bit for bit, except in
    a column whose deviation is not finite or is below 2^-500, as squares
    overflow beyond 2^512 and lose bits below 2^-511, or is within n * eps
    of |mean|, the rounding of a mean of n equal values.  Such a column is
    redone: a constant one (all entries equal) has moments ``(x[0], 0.0)``,
    and any other is redone on its entries times the power of two that puts
    its largest |entry| in [0.5, 1), a scaling that is exact, and its
    moments are scaled back, also exactly.  The redo scales all of ``x`` at
    once (by 2^0 in the other columns), so every column is summed in the
    order of the first pass: a column times 2^e gets the moments times 2^e.
    """

    def moments(values):  # numpy's own std arithmetic, on the mean already taken
        with np.errstate(over="ignore"):
            dev = values - (mu := values.mean(axis=0))
            return mu, np.sqrt(np.add.reduce(dev * dev, axis=0) / len(values))

    mu, scale = moments(x)
    rounding = len(x) * np.finfo(np.float64).eps * np.abs(mu)
    redo = ~((scale >= _TINY_SCALE) & (scale < np.inf) & (scale > rounding))
    if not redo.any():
        return mu, scale
    peak = np.abs(x).max(axis=0)
    e = np.where(redo & (0.0 < peak) & (peak < np.inf), np.frexp(peak)[1], 0)
    part_mu, part_scale = moments(np.ldexp(x, -e))
    const = redo & (x == x[0]).all(axis=0)
    mu = np.where(const, x[0], np.where(redo, np.ldexp(part_mu, e), mu))
    scale = np.where(const, 0.0, np.where(redo, np.ldexp(part_scale, e), scale))
    return mu[()], scale[()]


def _standardize(x: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu, scale = column_moments(x)
    scale = np.where(scale > 0.0, scale, 1.0)
    return standardize(x, mu, scale, out), mu, scale


def _fold_back(w_std: np.ndarray, mu: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Convert standardized-space weights to original-unit weights."""
    slopes = w_std[1:] / scale
    intercept = w_std[0] - float(slopes @ mu)
    return np.concatenate([[intercept], slopes])


def _regression_inputs(x, y) -> tuple[np.ndarray | Standardized, np.ndarray]:
    """x and y as float arrays; a ``Standardized`` x, checked when it was
    built, stays as it is."""
    std = isinstance(x, Standardized)
    x = x if std else np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x.shape) != 2 or y.shape != (x.shape[0],) or x.shape[0] < 1:
        raise ValueError("x must be (n, k) with matching y")
    if not ((std or np.isfinite(x).all()) and np.isfinite(y).all()):
        raise NumericError("non-finite values in regression inputs")
    return x, y


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a by Cholesky.

    LAPACK is called directly: the systems are small and solved thousands
    of times, so wrapper overhead would dominate.  Falls back to ``lstsq``
    when the factorization fails.
    """
    if not len(b):  # intercept-only fits
        return np.zeros(0)
    factor, info = dpotrf(a, lower=0, clean=0)
    if info == 0:
        x, info = dpotrs(factor, b, lower=0)
        if info == 0:
            return x
    return np.linalg.lstsq(a, b, rcond=None)[0]


@dataclass(frozen=True)
class Moments:
    """Ridge sufficient statistics of one block of rows.

    ``gram`` is Z'Z and ``zy`` is Z'y for the column-standardized design Z
    of the block (centered, so Z'1 = 0), ``y_mean`` the mean of the target.
    Standardization is per column, so the statistics of a column subset are
    the matching sub-blocks.  ``solve`` fits any target whose Z'y a caller
    derives on these rows; built without a target, ``zy`` is None.
    """

    n: int
    mu: np.ndarray
    scale: np.ndarray
    gram: np.ndarray
    zy: np.ndarray | None
    y_mean: float

    @classmethod
    def of(cls, x, y: np.ndarray | None = None) -> "Moments":
        """The statistics of rows ``x``: a feature matrix, or an already
        ``Standardized`` design, whose feature columns are Z as they stand."""
        x, target = _regression_inputs(x, np.zeros(np.shape(x)[0]) if y is None else y)
        if isinstance(x, Standardized):
            z, mu, scale = x.design[:, 1:], x.mu, x.scale
        else:
            z, mu, scale = _standardize(x)
        zy = None if y is None else z.T @ target
        return cls(x.shape[0], mu, scale, z.T @ z, zy, float(target.mean()))

    def sub_gram(self, cols: np.ndarray) -> np.ndarray:
        """Z'Z restricted to columns ``cols``."""
        return self.gram.take(cols, axis=0).take(cols, axis=1)

    def ridge(self, cols, lam: float = OUTCOME_LAMBDA) -> LinearModel:
        """Ridge fit of the block's target on columns ``cols`` (lam > 0)."""
        cols = np.asarray(cols, dtype=np.intp)
        return self.solve(cols, self.zy[cols], self.y_mean, lam)

    def solve(self, cols, zy, y_mean: float, lam: float = OUTCOME_LAMBDA) -> LinearModel:
        """Ridge model on columns ``cols`` of a target with Z'y ``zy`` (over
        ``cols``) and mean ``y_mean`` on these rows (lam > 0): Cholesky on
        the block's own (Z'Z + lam*I), ``lstsq`` if that fails."""
        if lam <= 0:
            raise ValueError("normal-equation ridge needs lam > 0")
        cols = np.asarray(cols, dtype=np.intp)
        system = self.sub_gram(cols)
        system.flat[:: len(cols) + 1] += lam
        w_std = np.concatenate([[y_mean], _spd_solve(system, zy)])
        return LinearModel(w_std, "regression", self.mu[cols], self.scale[cols])


def fit_ridge(x, y: np.ndarray, lam: float = OUTCOME_LAMBDA) -> LinearModel:
    """Ridge regression on standardized features, intercept unpenalized:
    the ``Moments`` normal-equation solve over all columns (lam > 0).
    ``x`` is a feature matrix or an already ``Standardized`` design."""
    return Moments.of(x, y).ridge(np.arange(np.shape(x)[1]), lam)


@dataclass(frozen=True)
class Standardized:
    """Column-standardized rows behind a leading intercept column.

    ``design`` is (n, k+1) in column-major order, so that selecting a
    column subset copies contiguous columns.  ``shape`` is (n, k), that of
    the feature rows, so ``np.shape`` sizes a design as it does a matrix.
    """

    design: np.ndarray
    mu: np.ndarray
    scale: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n, width = self.design.shape
        return n, width - 1

    @classmethod
    def of(cls, x: np.ndarray) -> "Standardized":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be (n, k)")
        if not np.isfinite(x).all():
            raise NumericError("non-finite values in features")
        design = np.empty((x.shape[0], x.shape[1] + 1), order="F")
        design[:, 0] = 1.0
        _, mu, scale = _standardize(x, out=design[:, 1:])
        return cls(design, mu, scale)

    def columns(self, cols) -> "Standardized":
        """The same rows restricted to feature columns ``cols``."""
        cols = np.asarray(cols, dtype=np.intp)
        return Standardized(
            self.design[:, np.concatenate([[0], cols + 1])], self.mu[cols], self.scale[cols]
        )


def logistic_loglik(score: np.ndarray, t: np.ndarray) -> float:
    """Log-likelihood of 0/1 labels ``t`` under linear scores ``score``:
    sum(t * s - log(1 + e^s)), exact for any finite score."""
    return float(t @ score - np.logaddexp(0.0, score).sum())


def _penalized_loglik(s, t, w, lam) -> float:
    """The objective of ``fit_logistic`` at weights ``w`` with scores s = design @ w."""
    return logistic_loglik(s, t) - 0.5 * lam * float(w[1:] @ w[1:])


def fit_logistic(
    x,
    t: np.ndarray,
    lam: float = PROPENSITY_LAMBDA,
    objective_trace: list | None = None,
    start: np.ndarray | None = None,
) -> LinearModel:
    """Penalized logistic regression by IRLS with step halving.

    ``x`` is a feature matrix or an already ``Standardized`` design.  The
    iteration starts from the standardized-space weights ``start`` (intercept
    first) when given, else from zero.  The probabilities and the gradient
    at each accepted point feed the next Newton step, and no accepted step
    lowers the penalized log-likelihood f by more than 1e-12, so the final
    iterate is also the best one.

    A full Newton step is accepted by a concavity certificate: f is concave,
    so f(cand) - f(w) >= g(cand).(cand - w) for the penalized gradient g,
    and a step with g(cand).step >= -1e-12 is taken without evaluating f.
    When that test fails, the step is halved until f, computed exactly from
    the linear scores, falls by no more than 1e-12.

    The fit has converged when the max weight change of an accepted step is
    below 1e-8, or when a full (not halved) Newton step is below 1e-5:
    Newton's method then converges quadratically, so the step that would
    follow is of the order of the square of that one.  If neither holds
    after 100 iterations, or no halved step keeps the objective from
    decreasing, the model is returned with ``converged=False``.  The model
    keeps the penalized Hessian of the last iteration (``hessian``).
    ``objective_trace``, when given, collects f at every accepted iterate;
    that costs one evaluation of f per iteration, and never changes which
    steps are taken.

    Raises:
        DegenerateArms: a label of t is not 0 or 1, or t lacks a class.
        NumericError: ``x`` holds non-finite values.
    """
    std = x if isinstance(x, Standardized) else Standardized.of(x)
    t = np.asarray(t, dtype=np.float64)
    if lam <= 0:
        raise ValueError("logistic fits require lam > 0")
    check_arms(t, "logistic fit")
    design = std.design
    k = design.shape[1] - 1
    pen = lam * np.concatenate([[0.0], np.ones(k)])

    w = np.zeros(k + 1) if start is None else np.array(start, dtype=np.float64)
    if w.shape != (k + 1,):
        raise DimensionMismatch(f"start must have {k + 1} weights, got {w.shape}")
    s = design @ w
    p = expit(s)
    grad = design.T @ (t - p) - pen * w
    cur_ll = None  # f(w), computed only when a trace or a line search needs it
    converged = False
    for _ in range(_IRLS_MAX_ITER):
        weight = p * (1.0 - p) + 1e-10
        hess = (design * weight[:, None]).T @ design
        hess.flat[k + 2 :: k + 2] += lam  # the slopes' penalty, not the intercept's
        step = _spd_solve(hess, grad)
        stepsize = 1.0
        cand = w + step
        cand_s = design @ cand
        cand_p = expit(cand_s)
        cand_grad = design.T @ (t - cand_p) - pen * cand
        if float(cand_grad @ step) >= -_ASCENT_TOL:
            cur_ll = None
        else:  # halve until the objective does not fall
            if cur_ll is None:
                cur_ll = _penalized_loglik(s, t, w, lam)
            for attempt in range(30):
                if attempt:
                    stepsize *= 0.5
                    cand = w + stepsize * step
                    cand_s = design @ cand
                cand_ll = _penalized_loglik(cand_s, t, cand, lam)
                if cand_ll >= cur_ll - _ASCENT_TOL:
                    break
            else:  # no halved step keeps the objective: stop, not converged
                break
            if stepsize != 1.0:
                cand_p = expit(cand_s)
                cand_grad = design.T @ (t - cand_p) - pen * cand
            cur_ll = cand_ll
        w, s, p, grad = cand, cand_s, cand_p, cand_grad
        if objective_trace is not None:
            if cur_ll is None:
                cur_ll = _penalized_loglik(s, t, w, lam)
            objective_trace.append(cur_ll)
        change = stepsize * float(np.abs(step).max())  # exact: stepsize is a power of two
        if change < _IRLS_TOL or (stepsize == 1.0 and change < _IRLS_QUAD_TOL):
            converged = True
            break
    return LinearModel(w, "logistic", std.mu, std.scale, converged, hess)


def projected_start(weights: np.ndarray, hessian: np.ndarray, keep) -> np.ndarray:
    """Start weights for a logistic fit on a subset of a fitted model's terms.

    ``weights`` and ``hessian`` are a fitted model's standardized-space
    weights and penalized Hessian; ``keep`` lists the positions retained
    (0 for the intercept).  The result minimizes the model's quadratic
    approximation of the objective around ``weights`` with every dropped
    weight held at zero: w[K] + H[K,K]^-1 H[K,D] w[D].
    """
    keep = np.asarray(keep, dtype=np.intp)
    dropped = np.ones(len(weights), dtype=bool)
    dropped[keep] = False
    drop = np.flatnonzero(dropped)
    rows = hessian.take(keep, axis=0)
    shift = rows.take(drop, axis=1) @ weights[drop]
    return weights[keep] + _spd_solve(rows.take(keep, axis=1), shift)


class LogisticBlock:
    """Warm-started logistic fits of labels ``t`` on column subsets of ``x``.

    ``fit(cols)`` fits on the ``Standardized`` rows restricted to ``cols``;
    ``mu``/``scale`` are those rows' column statistics.
    A greedy search scores subsets one column away from those of its round
    before, so the fit starts from the first stored fit of a subset one
    column away: for a removal, that parent's weights projected through its
    Hessian (``projected_start``); for an addition, its weights with zero
    for the new column.  Only the fits of the current subset size and of
    the size before it are kept.  A fit is stored when it returns, so a
    subset that its caller then abandons (say, a later split fails) still
    serves as a parent.
    """

    def __init__(self, x, t: np.ndarray):
        self.rows = Standardized.of(x)
        self.mu, self.scale = self.rows.mu, self.rows.scale
        self.t = t
        self._size = 0
        # by column set: (cols, standardized weights, Hessian) of this size, then the size before
        self._fits: list[dict] = [{}, {}]

    def fit(self, cols) -> LinearModel:
        cols = np.asarray(cols, dtype=np.intp)
        if len(cols) != self._size:  # a new round
            self._size = len(cols)
            self._fits = [{}, self._fits[0]]
        listed = cols.tolist()
        key = frozenset(listed)
        start = None
        for parent, (parent_cols, weights, hessian) in self._fits[1].items():
            if len(key ^ parent) == 1:
                pos = {c: j for j, c in enumerate(parent_cols, start=1)}
                take = np.array([0] + [pos.get(c, -1) for c in listed])
                if len(parent) > len(key):
                    start = projected_start(weights, hessian, take)
                else:
                    start = np.where(take >= 0, weights[take], 0.0)
                break
        model = fit_logistic(self.rows.columns(cols), self.t, start=start)
        self._fits[0][key] = (listed, model.w_std, model.hessian)
        return model


def standardize(x: np.ndarray, mu: np.ndarray, scale: np.ndarray, out=None) -> np.ndarray:
    """Rows ``x`` standardized by ``mu``/``scale`` as a fit does its own rows, into ``out``."""
    z = np.subtract(np.asarray(x, dtype=np.float64), mu, out=out)
    return np.divide(z, scale, out=z)


def predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """``predict_standardized`` on rows ``x`` in original units, standardized
    by the fit's own ``mu``/``scale``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and x.shape[1] == model.feature_dim:  # else the dimension check raises
        x = standardize(x, model.mu, model.scale)
    return predict_standardized(model, x)


def predict_standardized(model: LinearModel, z: np.ndarray) -> np.ndarray:
    """Linear score, or clipped probability for logistic models, of rows
    ``z`` in the model's standardized space, by the fit's own ``w_std``.

    Raises:
        DimensionMismatch: column count differs from the fitted dimension.
    """
    if z.ndim != 2 or z.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"expected {model.feature_dim} columns, got {z.shape[1] if z.ndim == 2 else 'non-2d'}"
        )
    score = model.w_std[0] + z @ model.w_std[1:]
    if model.kind == "logistic":  # clipped to PROB_CLIP
        return np.minimum(np.maximum(expit(score), PROB_CLIP[0]), PROB_CLIP[1])
    return score
