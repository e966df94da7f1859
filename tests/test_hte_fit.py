"""Greedy selection: scripted score tables, complexity bounds, live data."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hteselect import estimators, fit_metrics
from hteselect.errors import HteSelectError
from hteselect.estimators import ESTIMATOR_KINDS, fit_estimator
from hteselect.hte_fit import (
    N_SPLITS,
    SelectionStep,
    SelectionTrace,
    SubsetScorer,
    _greedy,
    _improves,
    backward_select,
    forward_select,
    select_features,
)
from hteselect.supervised import fit_logistic, fit_ridge, predict


class ScriptedScore:
    """Score table keyed by frozen column sets; counts evaluations."""

    def __init__(self, table, default=math.inf):
        self.table = {frozenset(k): v for k, v in table.items()}
        self.default = default
        self.calls = []

    def __call__(self, cols):
        self.calls.append(tuple(cols))
        return self.table.get(frozenset(cols), self.default)


def test_single_candidate_selected():
    score = ScriptedScore({(0,): 1.5})
    trace = forward_select(score, [0])
    assert trace.final_set == (0,)
    assert trace.final_score == 1.5
    assert len(trace.steps) == 1 and trace.steps[0].accepted


def test_forward_scripted_trace():
    # singletons: col0=5, col1=3, col2=6; pairs {1,0}=2, {1,2}=4; triple worse
    score = ScriptedScore(
        {(0,): 5.0, (1,): 3.0, (2,): 6.0, (0, 1): 2.0, (1, 2): 4.0, (0, 1, 2): 2.5}
    )
    trace = forward_select(score, [0, 1, 2])
    assert trace.final_set == (0, 1)
    assert trace.final_score == 2.0
    accepted = [s.column for s in trace.steps if s.accepted]
    assert accepted == [1, 0]  # seed col1, then add col0, then stop


def test_forward_stops_without_improvement():
    score = ScriptedScore({(0,): 1.0, (1,): 2.0, (0, 1): 1.0})
    trace = forward_select(score, [0, 1])
    assert trace.final_set == (0,)  # tie with current best is not accepted


def test_forward_tie_breaks_to_lowest_index():
    score = ScriptedScore({(0,): 2.0, (1,): 2.0, (0, 1): 5.0})
    trace = forward_select(score, [0, 1])
    assert trace.final_set == (0,)


def test_backward_no_improvement_keeps_all():
    score = ScriptedScore({(0, 1, 2): 1.0}, default=5.0)
    trace = backward_select(score, [0, 1, 2])
    assert trace.final_set == (0, 1, 2)
    assert trace.final_score == 1.0


def test_backward_scripted_removal():
    # dropping col2 improves 3.0 -> 1.0; no further improvement
    score = ScriptedScore({(0, 1, 2): 3.0, (0, 1): 1.0}, default=4.0)
    trace = backward_select(score, [0, 1, 2])
    assert trace.final_set == (0, 1)
    removed = [s.column for s in trace.steps if s.accepted]
    assert removed == [2]


def test_backward_stops_at_single_column():
    # every removal improves; must stop with one column left
    score = ScriptedScore(
        {(0, 1, 2): 9.0, (1, 2): 8.0, (0, 2): 7.0, (0, 1): 6.0, (0,): 5.0, (1,): 4.0}
    )
    trace = backward_select(score, [0, 1, 2])
    assert len(trace.final_set) == 1


def test_backward_single_column_keeps_it():
    score = ScriptedScore({(0,): 1.5})
    trace = backward_select(score, [0])
    assert trace.final_set == (0,)
    assert trace.final_score == score((0,))
    assert trace.steps == []


def test_empty_columns_and_unknown_direction_rejected():
    for select in (forward_select, backward_select):
        with pytest.raises(ValueError):
            select(ScriptedScore({}), [])
    with pytest.raises(ValueError):
        _greedy(ScriptedScore({(0,): 1.0}), [0], "sideways", "custom")


def test_forward_without_finite_singleton_raises():
    with pytest.raises(HteSelectError):
        forward_select(ScriptedScore({(0,): math.nan}), [0, 1])


def test_backward_without_finite_subset_raises():
    # the full set and every one-column removal score inf
    with pytest.raises(HteSelectError, match="backward selection found no subset"):
        backward_select(ScriptedScore({(0,): math.nan}), [0, 1, 2])


# ---------------------------------------------------------------------------
# reference: separate forward and backward loops, which the one loop must match
# ---------------------------------------------------------------------------


def _mark_accepted(steps, column, round_start):
    for step in steps[round_start:]:
        if step.column == column:
            step.accepted = True
            return


def _reference_forward(score, columns, metric="custom"):
    columns = sorted(int(c) for c in columns)
    if not columns:
        raise ValueError("forward selection needs at least one candidate column")
    steps = []

    best_col, best_score = None, math.inf
    for col in columns:
        value = score((col,))
        steps.append(SelectionStep(col, value, False))
        if value < best_score:
            best_col, best_score = col, value
    if best_col is None:
        raise HteSelectError("every singleton candidate failed to score")
    chosen = [best_col]
    _mark_accepted(steps, best_col, 0)

    remaining = [c for c in columns if c != best_col]
    while remaining:
        round_start = len(steps)
        cand_col, cand_score = None, math.inf
        for col in remaining:
            value = score(tuple(sorted(chosen + [col])))
            steps.append(SelectionStep(col, value, False))
            if value < cand_score:
                cand_col, cand_score = col, value
        if cand_col is None or not _improves(cand_score, best_score):
            break
        chosen.append(cand_col)
        best_score = cand_score
        _mark_accepted(steps, cand_col, round_start)
        remaining.remove(cand_col)

    return SelectionTrace(steps, tuple(sorted(chosen)), best_score, metric, "forward")


def _reference_backward(score, columns, metric="custom"):
    columns = sorted(int(c) for c in columns)
    if len(columns) < 2:
        raise ValueError("backward selection needs at least two candidate columns")
    steps = []
    kept = list(columns)
    best_score = score(tuple(kept))

    while len(kept) > 1:
        round_start = len(steps)
        cand_col, cand_score = None, math.inf
        for col in kept:
            value = score(tuple(c for c in kept if c != col))
            steps.append(SelectionStep(col, value, False))
            if value < cand_score:
                cand_col, cand_score = col, value
        if cand_col is None or not _improves(cand_score, best_score):
            break
        kept.remove(cand_col)
        best_score = cand_score
        _mark_accepted(steps, cand_col, round_start)

    if not math.isfinite(best_score):
        raise HteSelectError("no subset with a finite score")
    return SelectionTrace(steps, tuple(kept), best_score, metric, "backward")


# ties, near-ties inside REL_TOL, failed (inf) and NaN scores
_TABLE_VALUES = (0.0, 0.5, 1.0, 1.0 - 5e-7, 2.0, math.inf, math.nan)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def _run(select, table):
    calls = []

    def score(cols):
        calls.append(tuple(cols))
        return table[sum(1 << c for c in cols) - 1]

    k = (len(table) + 1).bit_length() - 1
    try:
        return select(score, range(k)), calls
    except (ValueError, HteSelectError) as exc:
        return type(exc), calls


@settings(max_examples=300)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(st.sampled_from(_TABLE_VALUES), min_size=2**k - 1, max_size=2**k - 1)
    )
)
def test_merged_loop_matches_reference_loops(table):
    # table[mask - 1] scores the subset whose column bitmask is mask
    pairs = [(forward_select, _reference_forward)]
    if len(table) >= 3:  # k >= 2: the reference backward loop needs two columns
        pairs.append((backward_select, _reference_backward))
    for select, reference in pairs:
        got, got_calls = _run(select, table)
        want, want_calls = _run(reference, table)
        assert got_calls == want_calls
        if isinstance(want, type):
            assert got is want
            continue
        assert [(s.column, s.accepted) for s in got.steps] == [
            (s.column, s.accepted) for s in want.steps
        ]
        assert all(_same_float(a.score, b.score) for a, b in zip(got.steps, want.steps))
        assert got.final_set == want.final_set
        assert _same_float(got.final_score, want.final_score)
        assert got.direction == want.direction


def test_evaluation_budget_quadratic():
    # worst case: every forward add / backward removal improves
    k = 8
    calls: list = []

    def diminishing(cols):
        calls.append(tuple(cols))
        return 1.0 / len(cols)

    forward_select(diminishing, range(k))
    assert len(calls) <= k * k + k

    calls.clear()

    def improving_removals(cols):
        calls.append(tuple(cols))
        return float(len(cols))

    backward_select(improving_removals, range(k))
    assert len(calls) <= k * k + k


def test_accepted_scores_strictly_decrease():
    rng = np.random.default_rng(1)
    table = {}
    cols = (0, 1, 2, 3)

    def noisy(c):
        key = frozenset(c)
        if key not in table:
            table[key] = float(rng.random())
        return table[key]

    for select in (forward_select, backward_select):
        trace = select(noisy, cols)
        accepted = [s.score for s in trace.steps if s.accepted]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_failed_candidate_scores_inf_and_is_skipped():
    def flaky(cols):
        if 1 in cols:
            return math.inf
        return 1.0 / len(cols)

    trace = forward_select(flaky, [0, 1, 2])
    assert 1 not in trace.final_set
    assert trace.final_set == (0, 2)


def _confounded_data(seed, n=4000, noise_cols=3):
    """X -> T, X -> Y, T -> Y plus pure-noise columns; X is column 0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    lat = 1.2 * x + 0.5 * rng.normal(size=n)
    t = (rng.random(n) < 1 / (1 + np.exp(-lat))).astype(float)
    y = 1.0 * t + 1.5 * x + 0.5 * rng.normal(size=n)
    cols = [x] + [rng.normal(size=n) for _ in range(noise_cols)]
    return np.column_stack(cols), t, y


def test_forward_prefers_confounder_over_noise():
    hits = 0
    for seed in range(50):
        x, t, y = _confounded_data(seed)
        trace = select_features(x, t, y, metric="TauRisk", direction="forward", seed=seed)
        order = [s.column for s in trace.steps if s.accepted]
        if order and order[0] == 0:
            hits += 1
    assert hits >= 40  # confounder enters first in >= 80% of seeds


def _mediated_data(seed, n=4000):
    """Confounder col0, two-step mediator chain cols 1-2, noise col3."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    lat = 1.0 * x + 0.5 * rng.normal(size=n)
    t = (rng.random(n) < 1 / (1 + np.exp(-lat))).astype(float)
    m1 = 0.9 * t + 0.5 * rng.normal(size=n)
    m2 = 0.8 * m1 + 0.5 * rng.normal(size=n)
    y = 0.7 * m2 + 1.2 * x + 0.5 * rng.normal(size=n)
    return np.column_stack([x, m1, m2, rng.normal(size=n)]), t, y


def test_backward_keeps_confounder_on_mediated_scm():
    kept = 0
    for seed in range(50):
        x, t, y = _mediated_data(seed)
        trace = select_features(x, t, y, metric="TauRisk", direction="backward", seed=seed)
        kept += 0 in trace.final_set
    assert kept >= 35  # confounder kept in >= 70% of seeds


def test_selection_deterministic():
    x, t, y = _confounded_data(123)
    a = select_features(x, t, y, seed=9)
    b = select_features(x, t, y, seed=9)
    assert a.final_set == b.final_set
    assert [(s.column, s.score, s.accepted) for s in a.steps] == [
        (s.column, s.score, s.accepted) for s in b.steps
    ]


def test_scorer_counts_evaluations_and_reports():
    x, t, y = _confounded_data(7, n=500)
    scorer = SubsetScorer(x, t, y, metric="TauRisk", seed=1)
    scorer((0,))
    assert scorer.evaluations == 1


@pytest.mark.parametrize("metric", ["TauRisk", "NNPEHE", "PluginTau", "CFCV"])
def test_all_metrics_drive_selection(metric):
    x, t, y = _confounded_data(11, n=1500)
    trace = select_features(x, t, y, metric=metric, seed=2)
    assert len(trace.final_set) >= 1
    assert math.isfinite(trace.final_score)


def _row_refit_score(scorer, x, t, y, cols):
    """Reference score: every model refit from raw rows with fit_estimator."""
    cols = list(cols)
    values = []
    for tr, va in scorer.splits:
        x_tr, t_tr, y_tr, x_va = x[tr], t[tr], y[tr], x[va]
        est = fit_estimator(scorer.estimator, x_tr[:, cols], t_tr, y_tr)
        tau_hat = est.predict(x_va[:, cols])
        if scorer.metric == "TauRisk":
            m_hat = predict(fit_ridge(x_tr, y_tr), x_va)
            p_hat = predict(fit_logistic(x_tr[:, cols], t_tr), x_va[:, cols])
            values.append(fit_metrics.tau_risk(tau_hat, y[va], t[va], m_hat, p_hat))
            continue
        if scorer.metric == "NNPEHE":
            tau_tilde = fit_metrics.nn_imputed_effects(x_va, y[va], t[va])
        elif scorer.metric == "PluginTau":
            tau_tilde = fit_estimator("T", x_tr, t_tr, y_tr).predict(x_va)
        else:
            arms = fit_estimator("T", x_tr, t_tr, y_tr)
            tau_tilde = fit_metrics.doubly_robust_effects(
                y[va], t[va],
                predict(arms.models["f1"], x_va),
                predict(arms.models["f0"], x_va),
                predict(fit_logistic(x_tr, t_tr), x_va),
            )
        values.append(fit_metrics.plugin_tau(tau_hat, tau_tilde))
    return float(np.mean(values))


# forward-like growth then backward-like removals, so that warm starts come
# from one and from two parents, smaller and larger
_SEQUENCE = [
    (0,), (1,), (0, 1), (0, 2), (0, 1, 2),
    (0, 1, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2), (1, 2, 3),
]


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("metric", ["TauRisk", "NNPEHE", "PluginTau", "CFCV"])
def test_scorer_matches_row_refit_reference(kind, metric):
    x, t, y = _confounded_data(5, n=600, noise_cols=4)
    scorer = SubsetScorer(x, t, y, metric=metric, estimator=kind, seed=3)
    for cols in _SEQUENCE:
        want = _row_refit_score(scorer, x, t, y, cols)
        assert abs(scorer(cols) - want) <= 1e-8 * abs(want), cols


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("metric", ["TauRisk", "NNPEHE", "PluginTau", "CFCV"])
def test_split_scores_match_raw_row_predictions(kind, metric):
    """Each split's score, from rows standardized once per model block,
    equals the same fit's ``predict`` on the raw validation rows, which
    standardizes them for each model itself.

    The tolerance is relative to the score or, for the imputation metrics,
    to the mean squares of the two effect vectors they compare: S and X on
    every column nearly reproduce the PluginTau yardstick, and their score
    of about 4e-11 is a difference of near-equal effects whose rounding
    moves it by about 6e-12 of itself."""
    x, t, y = _confounded_data(5, n=600, noise_cols=4)
    scorer = SubsetScorer(x, t, y, metric=metric, estimator=kind, seed=3)
    for cols in _SEQUENCE:
        idx = np.array(cols)
        for (tr, va), stats in zip(scorer.splits, scorer._split_stats):
            got = scorer._score(stats, idx)
            # the same fit again: each propensity block finds the same warm start
            est = estimators.fit_columns(stats["prepared"], idx)
            x_va = x[va][:, idx]
            tau_hat = est.predict(x_va)
            if metric == "TauRisk":
                propensity = est.models.get("propensity") or stats["propensity"].fit(idx)
                m_hat = predict(fit_ridge(x[tr], y[tr]), x[va])
                want = fit_metrics.tau_risk(
                    tau_hat, y[va], t[va], m_hat, predict(propensity, x_va)
                )
                size = abs(want)
            else:
                want = fit_metrics.plugin_tau(tau_hat, stats["tau_tilde"])
                size = max(abs(want), np.mean(tau_hat**2) + np.mean(stats["tau_tilde"] ** 2))
            assert abs(got - want) <= 1e-12 * size, cols


def _patch_fit_logistic(monkeypatch, wrapper):
    """Route every propensity IRLS (the scorer's and the estimators') through
    ``wrapper(original, x, t, lam, start)``."""
    from hteselect import estimators, supervised

    original = supervised.fit_logistic

    def patched(x, t, lam=supervised.PROPENSITY_LAMBDA, objective_trace=None, start=None):
        return wrapper(original, x, t, lam, start)

    monkeypatch.setattr(supervised, "fit_logistic", patched)
    monkeypatch.setattr(estimators, "fit_logistic", patched)


def test_warm_started_propensity_fits_take_fewer_iterations(monkeypatch):
    iterations: dict = {}

    def counting(original, x, t, lam, start):
        trace: list = []
        model = original(x, t, lam, trace, start)
        if start is not None:
            cold: list = []
            original(x, t, lam, cold)
            iterations["warm"] += len(trace)
            iterations["cold"] += len(cold)
        return model

    _patch_fit_logistic(monkeypatch, counting)
    x, t, y = _mediated_data(3, n=1000)
    # the metric's propensity (TauRisk) and the estimator's (X, DR per fold)
    for estimator, metric in [("T", "TauRisk"), ("DR", "CFCV"), ("X", "TauRisk")]:
        iterations.update(warm=0, cold=0)
        for select in (forward_select, backward_select):
            select(SubsetScorer(x, t, y, metric=metric, estimator=estimator, seed=4), range(4))
        assert 0 < iterations["warm"] < 0.8 * iterations["cold"], (estimator, metric)


def test_x_learner_propensity_serves_tau_risk(monkeypatch):
    starts = []

    def counting(original, x, t, lam, start):
        starts.append(start)
        return original(x, t, lam, None, start)

    _patch_fit_logistic(monkeypatch, counting)
    x, t, y = _confounded_data(7, n=500, noise_cols=2)
    scorer = SubsetScorer(x, t, y, metric="TauRisk", estimator="X", seed=1)
    # one IRLS fit per split, cold first and warm-started once neighbours are scored
    for cols, warm in [((0,), False), ((1,), False), ((0, 1), True), ((0, 1, 2), True)]:
        starts.clear()
        assert math.isfinite(scorer(cols))
        assert len(starts) == N_SPLITS, cols
        assert all((s is not None) == warm for s in starts), cols


def test_removal_starts_are_projected_through_the_parent_hessian(monkeypatch):
    from hteselect import supervised

    projected = []  # (projected start, parent weights with the column dropped)
    original_projection = supervised.projected_start

    def recording_projection(weights, hessian, keep):
        start = original_projection(weights, hessian, keep)
        projected.append((start, weights[keep]))
        return start

    closer = []

    def comparing(original, x, t, lam, start):
        model = original(x, t, lam, None, start)
        match = [plain for s, plain in projected if s is start]
        if match:
            optimum = model.w_std
            closer.append(
                np.linalg.norm(start - optimum) < np.linalg.norm(match[0] - optimum)
            )
        return model

    monkeypatch.setattr(supervised, "projected_start", recording_projection)
    _patch_fit_logistic(monkeypatch, comparing)
    x, t, y = _mediated_data(5, n=1000)
    x = np.column_stack([x, x[:, 0] + 0.5 * x[:, 1]])  # a column correlated with two others
    backward_select(SubsetScorer(x, t, y, metric="TauRisk", estimator="DR", seed=6), range(5))
    assert len(closer) == len(projected) >= 5 * 3 * 3  # first round: 5 removals x 3 splits x 3 fits
    assert np.mean(closer) >= 0.75  # 0.87 on this data


@pytest.mark.parametrize("estimator, metric", [("T", "TauRisk"), ("DR", "CFCV")])
def test_nan_propensity_skips_the_candidate(estimator, metric, monkeypatch, caplog):
    """NaN propensity weights, in the metric's own model (T with TauRisk) or
    in the estimator's fold models (DR), fail the propensity guard: every
    candidate scores inf with one warning, never a finite score.  Only the
    fit's own weights ``w_std`` are set: every prediction applies them."""
    x, t, y = _confounded_data(7, n=500, noise_cols=2)
    scorer = SubsetScorer(x, t, y, metric=metric, estimator=estimator, seed=1)

    def nan_weights(original, x, t, lam, start):
        model = original(x, t, lam, None, None)  # cold: a NaN parent gives no start
        model.w_std[:] = np.nan
        return model

    _patch_fit_logistic(monkeypatch, nan_weights)
    candidates = [(0,), (1,), (0, 1), (0, 1, 2)]
    with caplog.at_level(logging.WARNING, logger="hteselect.hte_fit"):
        assert [scorer(cols) for cols in candidates] == [math.inf] * len(candidates)
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert [m.split(" skipped")[0] for m in skipped] == [f"candidate {c}" for c in candidates]
