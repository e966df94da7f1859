"""Ridge and logistic core against closed-form and brute-force oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hteselect import supervised
from hteselect.errors import DegenerateArms, DimensionMismatch, NumericError
from hteselect.supervised import (
    LinearModel,
    LogisticBlock,
    Moments,
    Standardized,
    column_moments,
    fit_logistic,
    fit_ridge,
    predict,
    projected_start,
)

# a penalty small enough that ridge reproduces least squares to ~1e-12
NEAR_ZERO_LAM = 1e-12


def test_exact_line_recovered():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    model = fit_ridge(x, y, lam=NEAR_ZERO_LAM)
    assert abs(model.weights[0]) < 1e-10
    assert abs(model.weights[1] - 2.0) < 1e-10


def test_full_shrinkage_limit():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 1))
    y = 3.0 * x[:, 0] + 1.0
    model = fit_ridge(x, y, lam=1e12)
    assert abs(model.weights[1]) < 1e-6
    assert abs(model.weights[0] - y.mean()) < 1e-6


def _normal_equation_oracle(x, y, lam):
    """Independent closed-form solve mirroring the standardization contract."""
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    z = (x - mu) / sd
    a = np.hstack([np.ones((x.shape[0], 1)), z])
    penalty = lam * np.eye(x.shape[1] + 1)
    penalty[0, 0] = 0.0
    w = np.linalg.solve(a.T @ a + penalty, a.T @ y)
    slopes = w[1:] / sd
    return np.concatenate([[w[0] - slopes @ mu], slopes])


def test_matches_normal_equation_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    model = fit_ridge(x, y, lam=0.1)
    assert np.allclose(model.weights, _normal_equation_oracle(x, y, 0.1), atol=1e-8)


def _lstsq_oracle(x, y, lam):
    """SVD least squares on the penalty-augmented standardized design."""
    n, k = x.shape
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    design = np.hstack([np.ones((n, 1)), (x - mu) / sd])
    aug = np.vstack([design, np.sqrt(lam) * np.eye(k + 1)[1:]])
    w, *_ = np.linalg.lstsq(aug, np.concatenate([y, np.zeros(k)]), rcond=None)
    slopes = w[1:] / sd
    return np.concatenate([[w[0] - slopes @ mu], slopes])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0])
def test_cholesky_ridge_matches_lstsq_oracle(seed, lam):
    rng = np.random.default_rng(seed)
    n, k = 300 + 100 * seed, 6
    x = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k) + rng.normal(size=k) * 5
    # columns 0 and 1 correlated at 1 - 1e-6
    x[:, 1] = x[:, 0] + np.sqrt(2e-6) * x[:, 0].std() * rng.normal(size=n)
    assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] > 1 - 2e-6
    y = x @ rng.normal(size=k) + rng.normal(size=n)
    got = fit_ridge(x, y, lam).weights
    want = _lstsq_oracle(x, y, lam)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_moments_subset_ridge_matches_fit_on_columns():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(120, 5)) * [1.0, 3.0, 0.5, 2.0, 1.0] + [0.0, 4.0, -1.0, 0.0, 9.0]
    y = rng.normal(size=120)
    moments = Moments.of(x, y)
    for cols in ([2], [0, 3], [4, 1, 2], [0, 1, 2, 3, 4]):
        got = moments.ridge(cols, lam=0.1)
        want = fit_ridge(x[:, cols], y, lam=0.1)
        assert np.allclose(got.weights, want.weights, rtol=1e-10, atol=1e-12)


def test_ridge_on_a_standardized_design_is_the_ridge_on_its_rows():
    """A ``Standardized`` design holds the columns ``Moments.of`` would
    standardize itself (the same statistics, bit for bit), so only the
    gram's summation order may differ; its target is still checked."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(150, 4)) * [1.0, 3.0, 0.5, 2.0] + [0.0, 4.0, -1.0, 9.0]
    y = rng.normal(size=150)
    design = Standardized.of(x)
    assert np.shape(design) == x.shape
    got, want = fit_ridge(design, y, lam=0.1), fit_ridge(x, y, lam=0.1)
    assert np.array_equal(got.mu, want.mu) and np.array_equal(got.scale, want.scale)
    assert np.allclose(got.w_std, want.w_std, rtol=1e-12, atol=1e-14)
    with pytest.raises(NumericError):
        fit_ridge(design, np.where(np.arange(150) == 3, np.inf, y))
    with pytest.raises(ValueError):
        fit_ridge(design, y[1:])


def test_failed_cholesky_falls_back_to_lstsq():
    # an indefinite system has no Cholesky factor; lstsq still solves it
    zy = np.array([1.0, -2.0, 0.5])
    block = Moments(10, np.zeros(3), np.ones(3), -np.eye(3), None, 0.0)
    model = block.solve([0, 1, 2], zy, 0.5, lam=1e-3)
    assert np.allclose(model.weights[1:], zy / (-1.0 + 1e-3))
    assert model.weights[0] == 0.5


def test_ridge_needs_positive_penalty():
    y = np.array([1.0, 2.0, 3.0])
    for x in (
        np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),  # duplicated column
        np.array([[1.0, 4.0], [2.0, 4.0], [3.0, 4.0]]),  # constant column
    ):
        for lam in (0.0, -1e-3):
            with pytest.raises(ValueError):
                fit_ridge(x, y, lam=lam)
        fit_ridge(x, y, lam=1e-3)  # penalized solve is fine


def _ridge_objective(model, x, y, lam):
    """Penalized least squares at the model's weights; the penalty is on
    standardized-space slopes, as ``fit_ridge`` minimizes it."""
    resid = y - predict(model, x)
    w_std_slopes = model.weights[1:] * model.scale
    return float(resid @ resid + lam * (w_std_slopes @ w_std_slopes))


def test_unique_minimizer_property():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit_ridge(x, y, lam=0.5)
    base = _ridge_objective(model, x, y, 0.5)
    for j in range(len(model.weights)):
        for delta in (1e-3, -1e-3):
            bumped = LinearModel(
                w_std=model.w_std.copy(),
                kind=model.kind,
                mu=model.mu,
                scale=model.scale,
            )
            bumped.w_std[j] += delta
            assert _ridge_objective(bumped, x, y, 0.5) >= base


def test_prediction_reproduces_span_member():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 2))
    y = 1.5 + 2.0 * x[:, 0] - 0.5 * x[:, 1]
    model = fit_ridge(x, y, lam=NEAR_ZERO_LAM)
    assert np.allclose(predict(model, x), y, atol=1e-10)


def test_prediction_linear_in_weights():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    m1 = fit_ridge(x, rng.normal(size=20), lam=0.1)
    m2 = fit_ridge(x, rng.normal(size=20), lam=0.1)
    combo = LinearModel(
        w_std=m1.w_std + m2.w_std, kind="regression",
        mu=m1.mu, scale=m1.scale,
    )
    assert np.allclose(predict(combo, x), predict(m1, x) + predict(m2, x), atol=1e-12)


def test_dimension_mismatch():
    model = fit_ridge(np.ones((5, 2)), np.ones(5), lam=0.1)
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((5, 3)))


@pytest.mark.parametrize("lam", [0.1])
@pytest.mark.parametrize("bad", ["x", "y", "logistic"])
def test_non_finite_inputs_raise_numeric_error(lam, bad):
    x, y = np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 1.0])
    (y if bad == "y" else x)[1] = np.nan if bad == "y" else np.inf
    fit = fit_logistic if bad == "logistic" else fit_ridge
    with pytest.raises(NumericError):
        fit(x, y, lam=lam)


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------


def test_null_logistic_recovers_base_rate():
    rng = np.random.default_rng(3)
    n = 10_000
    x = rng.normal(size=(n, 1))
    t = (rng.random(n) < 0.3).astype(float)
    model = fit_logistic(x, t, lam=1e-2)
    assert abs(model.weights[1]) < 0.05
    logit = np.log(t.mean() / (1 - t.mean()))
    assert abs(model.weights[0] - logit) < 0.05


def test_separable_data_stays_finite():
    x = np.linspace(-1, 1, 50)[:, None]
    t = (x[:, 0] > 0).astype(float)
    model = fit_logistic(x, t, lam=0.1)
    assert np.isfinite(model.weights).all()
    assert model.converged


def test_probabilities_clipped():
    x = np.linspace(-5, 5, 100)[:, None]
    t = (x[:, 0] > 0).astype(float)
    model = fit_logistic(x, t, lam=1e-3)
    p = predict(model, x)
    assert p.min() >= 0.01 and p.max() <= 0.99


def test_objective_nondecreasing_over_irls():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(500, 3))
    z = 0.8 * x[:, 0] - 1.2 * x[:, 2]
    t = (rng.random(500) < 1 / (1 + np.exp(-z))).astype(float)
    trace: list = []
    fit_logistic(x, t, lam=1e-2, objective_trace=trace)
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-9)


def test_warm_start_reaches_cold_optimum():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(800, 4))
    z = 1.5 * x[:, 0] - 2.0 * x[:, 1] + 0.7 * x[:, 3]
    t = (rng.random(800) < 1 / (1 + np.exp(-z))).astype(float)
    cold_trace: list = []
    cold = fit_logistic(x, t, lam=1e-2, objective_trace=cold_trace)
    # the scorer's warm start: a fit without column 3, its weight set to zero
    parent = fit_logistic(x[:, :3], t, lam=1e-2).w_std
    warm_trace: list = []
    warm = fit_logistic(
        x, t, lam=1e-2, objective_trace=warm_trace, start=np.append(parent, 0.0)
    )
    assert warm.converged and cold.converged
    assert np.max(np.abs(warm.weights - cold.weights)) <= 1e-8
    assert np.all(np.diff(warm_trace) >= -1e-12)
    assert len(warm_trace) < len(cold_trace)
    with pytest.raises(DimensionMismatch):
        fit_logistic(x, t, start=np.zeros(4))


def test_single_class_rejected():
    with pytest.raises(DegenerateArms):
        fit_logistic(np.ones((5, 1)), np.ones(5), lam=0.1)


@pytest.mark.parametrize(
    "t", [[0, 1, 2, 1, 0, 1], [0, 1, np.nan, 1, 0, 1], [0, 1, 0.5, 1, 0, 1], [0, 0, 0, 0, 0, 0]]
)
def test_treatment_outside_zero_one_or_one_class_rejected(t):
    x = np.arange(2.0 * len(t)).reshape(len(t), 2) % 5
    with pytest.raises(DegenerateArms):
        fit_logistic(x, np.asarray(t, dtype=np.float64), lam=0.1)


def test_integer_and_bool_treatments_accepted():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 2))
    t = (rng.random(80) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    want = fit_logistic(x, t).weights
    for coded in (t.astype(np.int64), t.astype(bool), t.astype(np.int8), -0.0 + t):
        assert np.array_equal(fit_logistic(x, coded).weights, want)


def _newton_reference(x, t, lam, tol=1e-14):
    """Plain penalized Newton iteration on the standardized design, run
    until the step is below ``tol``; returns standardized-space weights."""
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    design = np.column_stack([np.ones(len(t)), z])
    pen = lam * np.r_[0.0, np.ones(x.shape[1])]
    w = np.zeros(x.shape[1] + 1)
    for _ in range(200):
        p = 1.0 / (1.0 + np.exp(-design @ w))
        hess = design.T @ (design * (p * (1 - p))[:, None]) + np.diag(pen)
        step = np.linalg.solve(hess, design.T @ (t - p) - pen * w)
        w = w + step
        if np.max(np.abs(step)) < tol:
            return w
    raise AssertionError("reference Newton loop did not converge")


def _propensity_design(seed, k, signal, n=1200):
    """Shifted, scaled normal features and treatments drawn from a logistic
    model with ``signal`` per standardized column."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0, size=k) + rng.normal(size=k)
    z = signal * ((x - x.mean(axis=0)) / x.std(axis=0)) @ rng.choice([-1.0, 1.0], size=k)
    t = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(float)
    return x, t


@pytest.mark.parametrize(
    "seed,k,signal",
    [(0, 1, 1.0), (1, 3, 1.0), (2, 8, 0.5), (3, 20, 0.4), (4, 20, 1.0), (5, 2, 6.0)],
)
def test_quadratic_stop_matches_newton_to_convergence(seed, k, signal):
    # signal 6 on two columns is nearly separable: 41% of p within 1e-3 of 0 or 1
    x, t = _propensity_design(seed, k, signal)
    model = fit_logistic(x, t, lam=1e-2)
    assert model.converged
    want = _newton_reference(x, t, 1e-2)
    assert np.max(np.abs(model.w_std - want)) <= 1e-9


def _count_loglik_calls():
    """Patch ``_penalized_loglik`` with a counting wrapper; returns the patch
    and the list that grows by one per call."""
    calls = []
    original = supervised._penalized_loglik

    def counting(*args):
        calls.append(1)
        return original(*args)

    return mock.patch.object(supervised, "_penalized_loglik", counting), calls


@pytest.mark.parametrize("seed,k,signal", [(1, 3, 1.0), (4, 20, 1.0), (5, 2, 6.0)])
def test_trace_never_changes_the_fit(seed, k, signal):
    x, t = _propensity_design(seed, k, signal)
    optimum = fit_logistic(x, t).w_std
    warm = optimum + np.random.default_rng(seed).normal(scale=0.1, size=k + 1)
    for start in (None, warm, -optimum):
        trace: list = []
        traced = fit_logistic(x, t, objective_trace=trace, start=start)
        plain = fit_logistic(x, t, start=start)
        assert trace
        assert np.array_equal(traced.weights, plain.weights)
        assert np.array_equal(traced.hessian, plain.hessian)
        assert traced.converged == plain.converged


def test_certified_steps_skip_the_objective():
    x, t = _propensity_design(1, 3, 1.0)
    patch, calls = _count_loglik_calls()
    with patch:
        assert fit_logistic(x, t).converged
        assert not calls  # every Newton step certified by the gradient
        trace: list = []
        fit_logistic(x, t, objective_trace=trace)
    assert len(calls) == len(trace) > 0  # a trace costs one evaluation per iteration


def test_failed_certificate_falls_back_to_step_halving():
    # nearly separable design started at the mirror image of its optimum:
    # the first full Newton steps overshoot, so the certificate fails
    x, t = _propensity_design(5, 2, 6.0)
    cold = fit_logistic(x, t)
    far = -cold.w_std
    patch, calls = _count_loglik_calls()
    with patch:
        model = fit_logistic(x, t, start=far)
    assert calls  # the fallback evaluated the objective
    trace: list = []
    fit_logistic(x, t, objective_trace=trace, start=far)
    assert np.all(np.diff(trace) >= 0.0)
    assert model.converged
    assert np.max(np.abs(model.w_std - cold.w_std)) <= 1e-9


def _objective(std, t, w, lam):
    """Penalized log-likelihood t.s - sum log(1 + e^s) - lam/2 |w[1:]|^2 of
    the scores s = design @ w, by the formula the fit evaluates."""
    s = std.design @ w
    return float(t @ s - np.logaddexp(0.0, s).sum()) - 0.5 * lam * float(w[1:] @ w[1:])


def _assert_never_falls(values):
    """No value is more than 1e-12 below the one before it, up to the
    rounding of that comparison at the values' magnitude."""
    values = np.asarray(values)
    slack = 1e-12 + 4 * np.spacing(np.abs(values[:-1]))
    assert np.all(np.diff(values) >= -slack)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(30, 400),
    k=st.integers(1, 6),
    signal=st.floats(0.0, 8.0),
    start_scale=st.sampled_from([0.0, 0.5, 5.0, 40.0]),
)
def test_accepted_steps_keep_the_objective_nondecreasing(seed, n, k, signal, start_scale):
    x, t = _propensity_design(seed, k, signal, n=n)
    if t.min() == t.max():
        return
    start = np.random.default_rng(seed).normal(scale=start_scale, size=k + 1)
    std = Standardized.of(x)
    trace = [_objective(std, t, start, 1e-2)]  # the fit appends its iterates
    fit_logistic(std, t, objective_trace=trace, start=start)
    assert len(trace) > 1
    _assert_never_falls(trace)


def test_far_starts_converge_without_lowering_the_objective():
    # heavy-tailed rows and large start weights put linear scores far beyond
    # where probabilities round to 0 or 1; the exact objective still sees
    # every misfit row improve, so no fit stalls in step halving
    rng = np.random.default_rng(1)
    for _ in range(300):
        n, k = int(rng.integers(4, 30)), int(rng.integers(1, 3))
        x = rng.standard_cauchy(size=(n, k))
        t = (rng.random(n) < 0.5).astype(float)
        if t.min() == t.max():
            continue
        start = rng.normal(scale=float(rng.choice([5, 20, 60, 200])), size=k + 1)
        lam = float(rng.choice([1e-3, 1e-2, 1.0]))
        std = Standardized.of(x)
        trace = [_objective(std, t, start, lam)]
        model = fit_logistic(std, t, lam=lam, objective_trace=trace, start=start)
        _assert_never_falls(trace)
        assert model.converged
        cold = fit_logistic(std, t, lam=lam).w_std
        assert np.allclose(model.w_std, cold, rtol=1e-8, atol=1e-8)


def test_moments_solve_matches_explicit_penalty_matrix_bitwise():
    rng = np.random.default_rng(10)
    for k in (1, 3, 8):
        moments = Moments.of(rng.normal(size=(60, k)) * rng.uniform(0.1, 5.0, size=k),
                             rng.normal(size=60))
        for lam in (1e-3, 0.7):
            got = moments.solve(np.arange(k), moments.zy, moments.y_mean, lam)
            slopes = supervised._spd_solve(moments.gram + lam * np.eye(k), moments.zy)
            want = supervised._fold_back(np.r_[moments.y_mean, slopes], moments.mu,
                                         moments.scale)
            assert np.array_equal(got.weights, want)


def test_fit_logistic_records_penalized_hessian():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 3))
    t = (rng.random(300) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    model = fit_logistic(x, t, lam=1e-2)
    z = (x - model.mu) / model.scale
    design = np.column_stack([np.ones(300), z])
    p = 1.0 / (1.0 + np.exp(-design @ model.w_std))
    want = design.T @ (design * (p * (1 - p))[:, None]) + np.diag([0.0, 1e-2, 1e-2, 1e-2])
    # the Hessian of the last iteration, taken one (tiny) step before the optimum
    assert np.allclose(model.hessian, want, rtol=1e-4)
    assert fit_ridge(x, t).hessian is None


def test_projected_start_minimizes_quadratic_model_with_dropped_weight_zero():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6))
    hess = a @ a.T + 0.5 * np.eye(6)
    w = rng.normal(size=6)
    keep = [0, 1, 2, 4, 5]
    # Lagrange system of: min (v - w)' H (v - w) subject to v[3] = 0
    kkt = np.zeros((7, 7))
    kkt[:6, :6] = hess
    kkt[3, 6] = kkt[6, 3] = 1.0
    v = np.linalg.solve(kkt, np.r_[hess @ w, 0.0])[:6]
    assert abs(v[3]) < 1e-12
    assert np.allclose(projected_start(w, hess, keep), v[keep], rtol=0, atol=1e-12)
    # the kept positions come back in the order given
    shuffled = projected_start(w, hess, [5, 0, 2])
    assert np.allclose(shuffled, projected_start(w, hess, [0, 2, 5])[[2, 0, 1]])


def _recorded_block(monkeypatch):
    """A LogisticBlock on four columns, and the ``start`` of each fit_logistic call."""
    starts = []
    original = supervised.fit_logistic

    def recording(x, t, lam=supervised.PROPENSITY_LAMBDA, objective_trace=None, start=None):
        starts.append(start)
        return original(x, t, lam, objective_trace, start)

    monkeypatch.setattr(supervised, "fit_logistic", recording)
    x, t = _propensity_design(10, 4, 0.8, n=400)
    return LogisticBlock(x, t), starts


def test_logistic_block_first_fit_is_cold(monkeypatch):
    block, starts = _recorded_block(monkeypatch)
    model = block.fit([0, 2])
    assert starts == [None]
    cold = supervised.fit_logistic(block.rows.columns([0, 2]), block.t)
    assert np.array_equal(model.weights, cold.weights)


def test_logistic_block_addition_starts_from_zero_padded_parent(monkeypatch):
    block, starts = _recorded_block(monkeypatch)
    parent = block.fit([0, 2])
    block.fit([0, 1, 2])
    assert np.array_equal(starts[-1], np.insert(parent.w_std, 2, 0.0))


def test_logistic_block_removal_starts_from_projected_parent(monkeypatch):
    block, starts = _recorded_block(monkeypatch)
    parent = block.fit([0, 1, 2])
    block.fit([0, 2])
    want = projected_start(parent.w_std, parent.hessian, [0, 1, 3])
    assert np.array_equal(starts[-1], want)


@pytest.mark.parametrize("order", [[(0, 1), (1, 2)], [(1, 2), (0, 1)]])
def test_logistic_block_parent_is_first_stored_neighbour(order, monkeypatch):
    block, starts = _recorded_block(monkeypatch)
    first = block.fit(order[0])
    block.fit(order[1])
    block.fit([1])  # both subsets of size 2 are one column away
    keep = [0, order[0].index(1) + 1]
    want = projected_start(first.w_std, first.hessian, keep)
    assert np.array_equal(starts[-1], want)


def test_logistic_block_keeps_only_two_subset_sizes(monkeypatch):
    block, starts = _recorded_block(monkeypatch)
    for cols in ([0], [1, 2], [1, 2, 3], [0, 3]):
        block.fit(cols)
    # (0,) is one column from (0, 3), but fitting size 3 dropped the size-1 fits
    assert starts[2] is not None and starts[3] is None


def test_models_keep_the_fits_own_weights_and_fold_back_lazily():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(80, 3)) * [1.0, 5.0, 0.2] + [0.0, 3.0, -1.0]
    y = x @ [1.0, -0.5, 2.0] + rng.normal(size=80)
    t = (rng.random(80) < 0.5).astype(float)
    ridge, logistic = fit_ridge(x, y, lam=0.1), fit_logistic(x, t)
    assert ridge.w_std[0] == y.mean()  # no round trip through original units
    for model in (ridge, logistic):
        assert np.array_equal(
            model.weights, supervised._fold_back(model.w_std, model.mu, model.scale)
        )


@pytest.mark.parametrize("kind", ["regression", "logistic"])
def test_predict_matches_the_original_unit_formula(kind):
    """``predict`` standardizes rows by the fit's own statistics and applies
    its own weights: the original-unit model weights[0] + x @ weights[1:]
    (expit and clip for logistic), up to rounding relative to |w|.|x|, also
    with a column offset by 1e6."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(300, 3)) * [1.0, 5.0, 0.2] + [0.0, 1e6, -1.0]
    t = (rng.random(300) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    y = x[:, 0] - 0.5 * (x[:, 1] - 1e6) + rng.normal(size=300)
    model = fit_ridge(x, y, lam=0.1) if kind == "regression" else fit_logistic(x, t)
    w = model.weights
    want = w[0] + x @ w[1:]
    if kind == "logistic":
        want = np.clip(1.0 / (1.0 + np.exp(-want)), *supervised.PROB_CLIP)
    size = abs(w[0]) + np.abs(x) @ np.abs(w[1:])
    assert np.all(np.abs(predict(model, x) - want) <= 1e-14 * size)


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300])
@pytest.mark.parametrize("kind", ["regression", "logistic"])
def test_fit_on_a_column_far_from_unit_scale(kind, scale):
    """A column whose squares underflow (1e-200) or overflow (1e160, 1e300)
    is standardized as at unit scale, so the fit and its predictions match
    the unit-scale ones; the other columns keep their statistics bit for
    bit."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(300, 3)) + [0.0, 2.0, 0.0]
    t = (rng.random(300) < 1 / (1 + np.exp(-x[:, 1]))).astype(float)
    y = x @ [1.0, -2.0, 0.5] + 0.1 * rng.normal(size=300)
    far = x * [1.0, scale, 1.0]
    fit = (lambda z: fit_ridge(z, y)) if kind == "regression" else (lambda z: fit_logistic(z, t))
    want, got = fit(x), fit(far)
    assert got.mu[1] == pytest.approx(want.mu[1] * scale, rel=1e-12)
    assert got.scale[1] == pytest.approx(want.scale[1] * scale, rel=1e-12)
    assert np.array_equal(got.scale[[0, 2]], want.scale[[0, 2]])
    np.testing.assert_allclose(got.w_std, want.w_std, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(predict(got, far), predict(want, x), rtol=1e-9, atol=1e-12)


def test_column_moments_commute_with_power_of_two_scaling():
    """Columns of an arm's row subset (a C-order copy) scaled by 2^+-520 and
    2^+-600 are redone, and get the unscaled columns' moments times 2^e bit
    for bit: the redo adds in the order of the first pass."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(300, 5)) + [0.0, 2.0, -1.0, 0.0, 5.0]
    arm = x[rng.random(300) < 0.5]
    e = np.array([520, -520, 600, -600, 0])
    mu, scale = column_moments(arm)
    got_mu, got_scale = column_moments(np.ldexp(arm, e))
    assert got_mu.tobytes() == np.ldexp(mu, e).tobytes()
    assert got_scale.tobytes() == np.ldexp(scale, e).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), k=st.integers(1, 9), e=st.integers(-40, 40),
       layout=st.sampled_from(["C", "F", "rows", "cols", "1-d"]),
       seed=st.integers(0, 2**32 - 1))
def test_column_moments_are_numpy_mean_and_std(n, k, e, layout, seed):
    """Off the redo path, the moments are ``mean(axis=0)`` and ``std(axis=0)``
    bit for bit, whatever the memory layout of ``x``."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.normal(size=(2 * n, 2 * k)) + rng.normal(size=2 * k), e)
    x = {"C": x[:n, :k].copy(), "F": np.asfortranarray(x[:n, :k]), "rows": x[::2, :k],
         "cols": x[:n, ::2], "1-d": x[:n, 0]}[layout]
    mu, scale = column_moments(x)
    assert np.asarray(mu).tobytes() == np.asarray(x.mean(axis=0)).tobytes()
    assert np.asarray(scale).tobytes() == np.asarray(x.std(axis=0)).tobytes()


@pytest.mark.parametrize("c", [0.1, 1 / 3, -7.3e5, 2.5, 0.0])
def test_constant_column_leaves_ridge_fit_unchanged(c):
    """A constant column standardizes to exactly 0, whether or not its mean
    rounds back to its value (0.1 and 1/3 do not at n = 1400), so ridge
    gives it weight 0 and predicts as on the other columns alone."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(1400, 2))
    y = 5.0 + x @ [1.0, 2.0] + 0.1 * rng.normal(size=1400)
    padded = np.column_stack([x, np.full(1400, c)])
    want = predict(fit_ridge(x, y), x)
    got = predict(fit_ridge(padded, y), padded)
    assert np.sqrt(np.mean((got - want) ** 2)) <= 1e-12 * np.sqrt(np.mean(want**2))
