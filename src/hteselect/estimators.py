"""Meta-learner CATE estimators over the ridge/logistic core.

Four constructions are provided: a single-model learner with explicit
treatment and treatment-by-feature interaction columns (S), per-arm outcome
models (T), imputed-effect regression with propensity weighting (X), and a
two-fold cross-fit doubly robust learner (DR).  Each fit returns a
``CateEstimator`` exposing per-unit effect prediction.

The module has three entry points.  ``prepare`` computes, once for a fixed
set of rows, the row-block statistics an estimator kind needs: ridge
``Moments`` per block its outcome models are fit on, and a ``LogisticBlock``
where a propensity model is fit by IRLS.  ``fit_columns`` then fits the
estimator on any column subset from those statistics alone; each
propensity fit is warm-started by its block from the subsets fit before,
so an X or DR fit depends on the fits its ``Prepared`` made earlier.
``fit_estimator`` is the all-columns case.  The greedy subset scorer
prepares once per inner split and fits every candidate subset; the harness
prepares T once per replicate on every training column and fits each
method's final model on its selected columns.  A sub-block fit agrees with
``fit_estimator`` on those columns alone up to the rounding of the grams,
not bit for bit.

A fitted ``CateEstimator`` holds only the models its effects read; X's
stage-one, S's joint and DR's nuisance fits are not kept.  Every model
predicts in its own standardized space: ``CateEstimator.effects`` takes the
``Rows`` of ``Prepared.rows``, standardized once per model block, and
``CateEstimator.predict`` runs it on raw rows standardized alike.  A DR
fold's ``Rows`` also hold the fold in the all-rows block's space, ``"all"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import supervised
from .errors import DimensionMismatch, check_arms
from .fit_metrics import doubly_robust_effects
from .supervised import LinearModel, LogisticBlock, Moments

# unused here: perfbench/tests/test_tracing.py checks that tracing also wraps these bindings
from .supervised import fit_logistic, fit_ridge  # noqa: F401

ESTIMATOR_KINDS = ("S", "T", "X", "DR")

# by kind, the block each model of ``CateEstimator.effects`` is fit on (see Prepared.rows)
_EFFECT_BLOCKS = {"S": {"effect": "joint"}, "T": {"f1": "f1", "f0": "f0"}, "DR": {"effect": "all"},
                  "X": {"g1": "f1", "g0": "f0", "propensity": "propensity"}}


class Rows:
    """Fixed rows that fitted models predict on, by model name: ``z`` holds
    the rows in the standardized space of each model's block, given by its
    (mu, scale) in ``spaces`` (one column-major copy per block), for the fit's
    own weights."""

    def __init__(self, x: np.ndarray, spaces: dict):
        self.z = {m: supervised.standardize(x, *space, np.empty(np.shape(x), order="F"))
                  for m, space in spaces.items()}

    def predict(self, model: LinearModel, name: str, cols=None) -> np.ndarray:
        """Model ``name``'s prediction on these rows' columns ``cols`` (all if None)."""
        z = self.z[name]
        return supervised.predict_standardized(model, z if cols is None else z[:, cols])


@dataclass
class CateEstimator:
    """A fitted effect estimator: exactly the models ``effects`` reads.

    ``predict`` takes a raw matrix with exactly ``feature_dim`` columns,
    already subset by the caller; ``effects`` takes ``Rows`` and ``cols``.
    """

    kind: str
    models: dict[str, LinearModel]

    @property
    def feature_dim(self) -> int:
        return next(iter(self.models.values())).feature_dim

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise DimensionMismatch(f"{self.kind}-learner expects {self.feature_dim} columns")
        spaces = {m: (model.mu, model.scale) for m, model in self.models.items()}
        return self.effects(Rows(x, spaces))  # each effect model's own space

    def effects(self, rows: Rows, cols=None) -> np.ndarray:
        """Per-unit effects on ``rows``, restricted to columns ``cols`` if given."""

        def model(name: str) -> np.ndarray:
            return rows.predict(self.models[name], name, cols)

        if self.kind == "T":
            return model("f1") - model("f0")
        if self.kind == "X":
            p = model("propensity")
            return p * model("g0") + (1.0 - p) * model("g1")
        return model("effect")  # DR, and S's treatment terms (see _fit_s)


@dataclass(frozen=True)
class Prepared:
    """Row-block statistics of one estimator kind over a fixed set of rows.

    ``blocks`` holds the kind's statistics by name; ``n_features`` is the
    column count of the rows they were computed from.
    """

    kind: str
    n_features: int
    blocks: dict

    def rows(self, x, **extra) -> Rows:
        """Rows ``x`` for ``CateEstimator.effects``, and for the models of
        the ``extra`` blocks under their keywords."""
        blocks, k = {**self.blocks, **extra}, self.n_features
        fit_on = dict(_EFFECT_BLOCKS[self.kind], **{name: name for name in extra})
        spaces = {m: (blocks[b].mu, blocks[b].scale) for m, b in fit_on.items()}
        if self.kind == "S":  # derived from the joint block, in its own space (see _fit_s)
            spaces["effect"] = (np.zeros(k), blocks["joint"].scale[k + 1:])
        return Rows(x, spaces)


def _arm_moments(x: np.ndarray, t: np.ndarray, y: np.ndarray) -> dict[str, Moments]:
    return {"f1": Moments.of(x[t == 1], y[t == 1]), "f0": Moments.of(x[t == 0], y[t == 0])}


def _s_design(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Centered treatment coding keeps the fit exactly antisymmetric under
    # label swaps; the effect formula is unchanged.
    tc = (t - 0.5)[:, None]
    return np.hstack([x, tc, tc * x])


def _fit_s(prep: Prepared, cols: np.ndarray) -> CateEstimator:
    """One ridge model on [x, t, t*x]; effect = f(x, 1) - f(x, 0).

    With tc = t - 1/2 that difference is the tc slope plus x times the tc*x
    slopes (their centering cancels): the ``effect`` model, standardized by
    the tc*x columns' scales alone.
    """
    k, c, joint = prep.n_features, len(cols), prep.blocks["joint"]
    model = joint.ridge(np.concatenate([cols, [k], k + 1 + cols]))
    w = np.concatenate([[model.w_std[c + 1] / joint.scale[k]], model.w_std[c + 2:]])
    effect = LinearModel(w, "regression", np.zeros(c), joint.scale[k + 1 + cols])
    return CateEstimator(kind="S", models={"effect": effect})


def _fit_t(prep: Prepared, cols: np.ndarray) -> CateEstimator:
    """Separate ridge per arm; effect = f1(x) - f0(x)."""
    models = {arm: prep.blocks[arm].ridge(cols) for arm in ("f1", "f0")}
    return CateEstimator(kind="T", models=models)


def _residual_ridge(
    block: Moments, cols: np.ndarray, model: LinearModel, sign: float
) -> LinearModel:
    """Ridge of sign * (y - model(x)) on a block's rows, from its moments.

    The residual is affine in the block's standardized columns, so its
    normal-equation statistics follow from Z'Z and Z'y.
    """
    slopes = model.weights[1:]
    z_resid = block.zy[cols] - block.sub_gram(cols) @ (block.scale[cols] * slopes)
    resid_mean = block.y_mean - model.weights[0] - float(block.mu[cols] @ slopes)
    return block.solve(cols, sign * z_resid, sign * resid_mean)


def _fit_x(prep: Prepared, cols: np.ndarray) -> CateEstimator:
    """Two-stage construction with propensity-weighted effect models.

    Stage one fits per-arm outcome models.  Stage two regresses the imputed
    effects D1 = y1 - f0(x1) and D0 = f1(x0) - y0 onto features, and the
    prediction is the pointwise convex combination
    p(x) * g0(x) + (1 - p(x)) * g1(x).  Both stages are solved from the
    per-arm moments; the stage-one models serve the imputation alone.
    """
    blocks = prep.blocks
    f1, f0 = blocks["f1"].ridge(cols), blocks["f0"].ridge(cols)
    models = {"g1": _residual_ridge(blocks["f1"], cols, f0, 1.0),
              "g0": _residual_ridge(blocks["f0"], cols, f1, -1.0),
              "propensity": blocks["propensity"].fit(cols)}
    return CateEstimator(kind="X", models=models)


def _prepare_dr(x, t, y) -> dict:
    folds = []
    for part in (0, 1):  # folds by row parity (deterministic)
        xf, tf, yf = x[part::2], t[part::2], y[part::2]
        check_arms(tf, "cross-fitting fold")
        folds.append(
            dict(_arm_moments(xf, tf, yf), x=xf, t=tf, y=yf, propensity=LogisticBlock(xf, tf))
        )
    whole = Moments.of(x)
    for apply, fit in zip(folds, folds[::-1]):  # a fold's rows as the other fold's models see them
        spaces = {name: (fit[name].mu, fit[name].scale) for name in ("f1", "f0", "propensity")}
        apply["rows"] = Rows(apply["x"], dict(spaces, all=(whole.mu, whole.scale)))
    return {"folds": folds, "all": whole}


def _fit_dr(prep: Prepared, cols: np.ndarray) -> CateEstimator:
    """Two-fold cross-fit doubly robust learner.

    Folds are assigned by row parity (deterministic).  Pseudo-outcomes on
    each fold use nuisance models fit on the other fold; the final stage is
    one ridge of the pseudo-outcomes on features over all rows, whose target
    statistics accumulate fold by fold.  Only that final ``effect`` model is
    kept; the nuisance fits serve their fold's pseudo-outcomes alone.
    """
    folds, whole = prep.blocks["folds"], prep.blocks["all"]
    z_phi = np.zeros(len(cols))
    phi_sum = 0.0
    for current in (0, 1):
        fit, apply = folds[1 - current], folds[current]
        nuisance = {arm: fit[arm].ridge(cols) for arm in ("f1", "f0")}
        nuisance["propensity"] = fit["propensity"].fit(cols)
        m1, m0, p = (apply["rows"].predict(model, name, cols) for name, model in nuisance.items())
        phi = doubly_robust_effects(apply["y"], apply["t"], m1, m0, p)
        z_phi += apply["rows"].z["all"][:, cols].T @ phi
        phi_sum += float(phi.sum())
    return CateEstimator(kind="DR", models={"effect": whole.solve(cols, z_phi, phi_sum / whole.n)})


_PREPARERS: dict[str, Callable] = {
    "S": lambda x, t, y: {"joint": Moments.of(_s_design(x, t), y)},
    "T": _arm_moments,
    "X": lambda x, t, y: dict(_arm_moments(x, t, y), propensity=LogisticBlock(x, t)),
    "DR": _prepare_dr,
}

_FITTERS: dict[str, Callable] = {"S": _fit_s, "T": _fit_t, "X": _fit_x, "DR": _fit_dr}


def prepare(kind: str, x, t, y) -> Prepared:
    """Row-block statistics for fitting ``kind`` on column subsets of x.

    DR predicts each fold with the other fold's models, on the fold's rows
    standardized once here for each of them.

    Raises:
        DegenerateArms: a label of t is not 0 or 1, or a treatment arm is
            empty, overall or (DR) within a cross-fitting fold.
    """
    if kind not in _FITTERS:
        raise ValueError(f"unknown estimator kind {kind!r}; use one of {ESTIMATOR_KINDS}")
    x, t, y = np.asarray(x, float), np.asarray(t, float), np.asarray(y, float)
    check_arms(t, f"{kind}-learner")
    return Prepared(kind, x.shape[1], _PREPARERS[kind](x, t, y))


def fit_columns(prep: Prepared, cols) -> CateEstimator:
    """Fit the prepared estimator on feature columns ``cols``."""
    return _FITTERS[prep.kind](prep, np.asarray(cols, dtype=np.intp))


def fit_estimator(kind: str, x, t, y) -> CateEstimator:
    """Fit one of the four estimator kinds by name on all columns of x."""
    prep = prepare(kind, x, t, y)
    return fit_columns(prep, np.arange(prep.n_features))
