"""Metric-guided greedy feature selection, forward and backward.

Both directions are one greedy loop over one-column moves: forward
selection starts from the empty set and keeps adding the column whose
addition scores best, backward selection starts from the full set and keeps
removing the column whose removal scores best, each while the score
strictly improves.  The loop works through a score callable on column
tuples, so the search logic is testable against scripted score tables, and
it breaks ties toward the lowest column index.

``SubsetScorer`` supplies the real score: it freezes a few inner train/
validation splits per selection run, fits each metric's nuisance yardsticks
once per split on the inner-train rows using the full candidate set, then
scores a candidate subset by refitting only the effect estimator and
averaging the per-split metric.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import estimators, fit_metrics, supervised
from .errors import HteSelectError

logger = logging.getLogger(__name__)

REL_TOL = 1e-6
INNER_TRAIN_RATIO = 0.7
N_SPLITS = 3


@dataclass
class SelectionStep:
    column: int
    score: float
    accepted: bool


@dataclass
class SelectionTrace:
    """Full record of one greedy selection run."""

    steps: list[SelectionStep]
    final_set: tuple[int, ...]
    final_score: float
    metric: str
    direction: str

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "metric": self.metric,
            "final_set": list(self.final_set),
            "final_score": self.final_score,
            "steps": [asdict(step) for step in self.steps],
        }


def _improves(candidate: float, best: float) -> bool:
    if not math.isfinite(candidate):
        return False
    if not math.isfinite(best):
        return True
    return best - candidate > REL_TOL * abs(best)


def _greedy(
    score: Callable[[tuple[int, ...]], float],
    columns: Sequence[int],
    direction: str,
    metric: str,
) -> SelectionTrace:
    """Greedy search over one-column moves.

    Forward starts from the empty set and each move adds a column; backward
    starts from the full set and each move removes one.  A round scores
    every move, keeps the lowest score (ties to the lowest column index) and
    takes it only if it improves the best score by more than ``REL_TOL``
    (relative).  The search stops when a round does not improve, no move is
    left, or backward selection is down to one column.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    columns = sorted(int(c) for c in columns)
    if not columns:
        raise ValueError(f"{direction} selection needs at least one candidate column")
    backward = direction == "backward"
    current, best = (set(columns), score(tuple(columns))) if backward else (set(), math.inf)
    keep = 1 if backward else 0  # backward never removes the last column
    steps: list[SelectionStep] = []

    while len(moves := [c for c in columns if (c in current) == backward]) > keep:
        pick = None
        for col in moves:
            step = SelectionStep(col, score(tuple(sorted(current ^ {col}))), False)
            steps.append(step)
            if step.score < (math.inf if pick is None else pick.score):
                pick = step
        if pick is None or not _improves(pick.score, best):
            break
        pick.accepted = True
        current ^= {pick.column}
        best = pick.score

    if not current:
        raise HteSelectError("every singleton candidate failed to score")
    return SelectionTrace(
        steps=steps,
        final_set=tuple(sorted(current)),
        final_score=best,
        metric=metric,
        direction=direction,
    )


def forward_select(
    score: Callable[[tuple[int, ...]], float],
    columns: Sequence[int],
    metric: str = "custom",
) -> SelectionTrace:
    """Greedy forward selection over ``columns`` (see ``_greedy``)."""
    return _greedy(score, columns, "forward", metric)


def backward_select(
    score: Callable[[tuple[int, ...]], float],
    columns: Sequence[int],
    metric: str = "custom",
) -> SelectionTrace:
    """Greedy backward elimination over ``columns`` (see ``_greedy``)."""
    return _greedy(score, columns, "backward", metric)


class SubsetScorer:
    """Scores candidate column subsets against fixed metric yardsticks.

    ``N_SPLITS`` inner train/validation splits (``INNER_TRAIN_RATIO`` of the
    rows for training) are drawn once per instance, and every candidate
    subset is scored on the same splits with the per-split values averaged:
    at desk-scale sample sizes a single split's metric noise rivals the
    selection signal, and the greedy argmin then stalls on its own
    winner's-curse scores.

    Per split, the outcome yardstick and any imputed reference effects are
    fit once on the inner-train rows with the full candidate feature set, so
    every subset faces the same target.  The propensity estimate for the
    residual-product metric is refit on the subset under evaluation: a
    propensity fit on all candidates would learn to predict the treatment
    from its own descendants, collapsing the treatment-residual term exactly
    when post-treatment columns are present.  Estimator failures score +inf
    and are skipped with a warning rather than aborting the search.

    Everything fixed per split is computed once: ``estimators.prepare``
    gives the estimator's Gram blocks (each ridge fit is a Cholesky solve of
    a sub-block) and a warm-started ``supervised.LogisticBlock`` per
    propensity model; the residual-product metric holds one more block for
    its own propensity, unless the estimator is X, whose propensity is that
    same model.  ``Prepared.rows`` standardizes the validation rows once per
    model block with that block's statistics, so a candidate's prediction is
    a column gather and a matvec with the fit's own weights, and the metric
    runs on the precomputed outcome residuals or imputed effects.
    """

    def __init__(
        self,
        x: np.ndarray,
        t: np.ndarray,
        y: np.ndarray,
        metric: str,
        estimator: str = "T",
        seed: int = 0,
    ):
        if metric not in fit_metrics.METRIC_KINDS:
            raise ValueError(f"unknown metric {metric!r}")
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.metric = metric
        self.estimator = estimator
        self.evaluations = 0

        n = x.shape[0]
        rng = np.random.default_rng(seed)
        cut = int(round(INNER_TRAIN_RATIO * n))
        self.splits: list[tuple[np.ndarray, np.ndarray]] = []
        for _ in range(N_SPLITS):
            order = rng.permutation(n)
            tr, va = order[:cut], order[cut:]
            if len(set(t[tr])) < 2 or len(set(t[va])) < 2:
                raise HteSelectError("inner split lost a treatment arm")
            self.splits.append((tr, va))
        self._split_stats = [self._prepare_split(x, t, y, tr, va) for tr, va in self.splits]

    def _prepare_split(self, x, t, y, tr, va) -> dict:
        """Yardsticks, fitting statistics and validation rows of one split."""
        x_tr, t_tr, y_tr, x_va = x[tr], t[tr], y[tr], x[va]
        stats = {"t_va": t[va]}
        stats.update(self._fit_yardstick(x_tr, t_tr, y_tr, x_va, t[va], y[va]))
        own = {}
        if self.metric == "TauRisk" and self.estimator != "X":  # else X's propensity serves
            own["propensity"] = stats["propensity"] = supervised.LogisticBlock(x_tr, t_tr)
        # T against PluginTau's T-learner predicts in raw units, bit for bit as a T refit would
        as_yardstick = self.metric == "PluginTau" and self.estimator == "T"
        try:
            prepared = estimators.prepare(self.estimator, x_tr, t_tr, y_tr, scoring=True)
            stats["rows"] = estimators.Rows(x_va) if as_yardstick else prepared.rows(x_va, **own)
        except HteSelectError as exc:  # every subset fails alike on this split
            prepared = exc
        stats["prepared"] = prepared
        return stats

    def _fit_yardstick(self, x_tr, t_tr, y_tr, x_va, t_va, y_va) -> dict:
        if self.metric == "TauRisk":
            m_hat = supervised.fit_ridge(x_tr, y_tr)
            return {"y_resid": y_va - supervised.predict(m_hat, x_va)}
        if self.metric == "NNPEHE":
            return {"tau_tilde": fit_metrics.nn_imputed_effects(x_va, y_va, t_va)}
        if self.metric == "PluginTau":
            ref = estimators.fit_estimator("T", x_tr, t_tr, y_tr)
            return {"tau_tilde": ref.predict(x_va)}
        arms = estimators.fit_estimator("T", x_tr, t_tr, y_tr)  # CFCV
        p_hat = supervised.fit_logistic(x_tr, t_tr)
        m1, m0 = (supervised.predict(arms.models[arm], x_va) for arm in ("f1", "f0"))
        p_va = supervised.predict(p_hat, x_va)
        return {"tau_tilde": fit_metrics.doubly_robust_effects(y_va, t_va, m1, m0, p_va)}

    def __call__(self, cols: tuple[int, ...]) -> float:
        self.evaluations += 1
        idx = np.asarray(cols, dtype=np.intp)
        try:
            values = [self._score(stats, idx) for stats in self._split_stats]
        except HteSelectError as exc:
            logger.warning("candidate %s skipped: %s", tuple(cols), exc)
            return math.inf
        return sum(values) / len(values)

    def _score(self, stats: dict, idx: np.ndarray) -> float:
        """The metric of one split for the estimator fit on columns ``idx``."""
        if isinstance(stats["prepared"], HteSelectError):
            raise stats["prepared"]
        est = estimators.fit_columns(stats["prepared"], idx)
        rows = stats["rows"]
        tau_hat = est.effects(rows, idx)
        if self.metric != "TauRisk":
            return fit_metrics.plugin_tau(tau_hat, stats["tau_tilde"])
        propensity = est.models.get("propensity") or stats["propensity"].fit(idx)
        p_hat = rows.predict(propensity, "propensity", idx)
        return fit_metrics.residual_risk(tau_hat, stats["y_resid"], stats["t_va"], p_hat)


def select_features(
    x,
    t,
    y,
    metric: str = "TauRisk",
    estimator: str = "T",
    direction: str = "forward",
    seed: int = 0,
) -> SelectionTrace:
    """Run one full metric-guided selection on a training partition."""
    scorer = SubsetScorer(x, t, y, metric=metric, estimator=estimator, seed=seed)
    return _greedy(scorer, range(np.asarray(x).shape[1]), direction, metric)
