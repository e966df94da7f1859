"""Meta-learner contracts: null effects, constant effects, symmetries."""

import numpy as np
import pytest

from hteselect.errors import DegenerateArms, DimensionMismatch
from hteselect.estimators import ESTIMATOR_KINDS, _s_design, fit_columns, fit_estimator, prepare
from hteselect.fit_metrics import doubly_robust_effects
from hteselect.supervised import fit_logistic, fit_ridge
from hteselect.supervised import predict as lin_predict


def _randomized(n, seed, effect="null"):
    """Randomized-treatment data with a known effect shape."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    t = (rng.random(n) < 0.5).astype(float)
    noise = 0.3 * rng.normal(size=n)
    if effect == "null":
        y = x[:, 0] + noise
        tau = np.zeros(n)
    elif effect == "constant":
        y = 2.0 * t + 0.5 * x[:, 0] + noise
        tau = np.full(n, 2.0)
    else:  # linear heterogeneity: y = t * x1
        y = t * x[:, 0] + noise
        tau = x[:, 0]
    return x, t, y, tau


@pytest.mark.parametrize("kind", ["S", "T", "X", "DR"])
def test_null_effect_estimated_near_zero(kind):
    x, t, y, _ = _randomized(10_000, 0, "null")
    est = fit_estimator(kind, x, t, y)
    assert np.abs(est.predict(x)).max() < 0.05


@pytest.mark.parametrize("kind", ["S", "T", "X", "DR"])
def test_constant_effect_recovered(kind):
    x, t, y, _ = _randomized(10_000, 1, "constant")
    est = fit_estimator(kind, x, t, y)
    tau_hat = est.predict(x)
    assert abs(tau_hat.mean() - 2.0) < 0.05


@pytest.mark.parametrize("kind", ["S", "T"])
def test_linear_heterogeneity_tracked(kind):
    x, t, y, tau = _randomized(10_000, 2, "linear")
    est = fit_estimator(kind, x, t, y)
    tau_hat = est.predict(x)
    slope = np.polyfit(x[:, 0], tau_hat, 1)[0]
    assert abs(slope - 1.0) < 0.05


def _offset(x):
    """Columns on different scales, one far from zero."""
    return x * [1.0, 4.0, 0.3] + [2.0, -1.0, 1e3]


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_predict_is_effects_on_prepared_rows(kind):
    """``predict`` standardizes raw rows for each effect model by that
    model's own statistics, ``Prepared.rows`` by those of the block it is
    fit on: the same numbers, so the effects agree bit for bit."""
    x, t, y, _ = _randomized(1_000, 13, "linear")
    x_new = _offset(_randomized(300, 14)[0])
    est = fit_estimator(kind, _offset(x), t, y)
    rows = prepare(kind, _offset(x), t, y).rows(x_new)
    assert np.array_equal(est.predict(x_new), est.effects(rows))


EFFECT_MODELS = {"S": ["effect"], "T": ["f1", "f0"], "X": ["g1", "g0", "propensity"],
                 "DR": ["effect"]}


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_fitted_estimator_holds_exactly_the_models_effects_reads(kind):
    x, t, y, _ = _randomized(600, 18, "linear")
    est = fit_estimator(kind, x, t, y)
    assert sorted(est.models) == sorted(EFFECT_MODELS[kind])

    class Recorded(dict):
        def __getitem__(self, name):
            read.append(name)
            return super().__getitem__(name)

    read: list[str] = []
    est.models = Recorded(est.models)
    est.predict(x)
    assert sorted(read) == sorted(EFFECT_MODELS[kind])


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("cols", [[0], [2], [0, 2], [1, 2], [0, 1, 2]])
def test_sub_block_fit_is_the_fit_on_those_columns(kind, cols):
    """A fit on columns ``cols`` from a ``prepare`` of every column is the
    estimator fit on those columns alone: standardization is per column,
    so only the grams' rounding differs.  The bound is the 1e-9 relative
    pin of the records in tests/data; the offset column, 0.3 wide around
    1e3, leaves about 1e-11 here."""
    x, t, y, _ = _randomized(1_000, 16, "linear")
    x, x_new = _offset(x), _offset(_randomized(300, 17)[0])[:, cols]
    got = fit_columns(prepare(kind, x, t, y), cols).predict(x_new)
    want = fit_estimator(kind, x[:, cols], t, y).predict(x_new)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_s_learner_effect_is_the_joint_model_difference():
    """S's ``effect`` model is f(x, 1) - f(x, 0) of the joint ridge f on
    [x, t - 1/2, (t - 1/2) x]: the joint model predicted on both arms of
    that design gives the same effects up to rounding."""
    x, t, y, _ = _randomized(1_000, 15, "linear")
    x = _offset(x)
    est = fit_estimator("S", x, t, y)
    joint, ones = fit_ridge(_s_design(x, t), y), np.ones(len(x))
    want = lin_predict(joint, _s_design(x, ones)) - lin_predict(joint, _s_design(x, 1.0 - ones))
    got = est.predict(x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sqrt(np.mean(got**2))


def test_x_learner_close_to_t_learner_when_randomized():
    x, t, y, _ = _randomized(10_000, 3, "linear")
    tx = fit_estimator("T", x, t, y).predict(x)
    xx = fit_estimator("X", x, t, y).predict(x)
    assert np.sqrt(np.mean((tx - xx) ** 2)) < 0.05


def test_x_learner_prediction_is_convex_combination():
    x, t, y, _ = _randomized(2_000, 4, "linear")
    est = fit_estimator("X", x, t, y)
    g1 = lin_predict(est.models["g1"], x)
    g0 = lin_predict(est.models["g0"], x)
    tau_hat = est.predict(x)
    lo = np.minimum(g0, g1) - 1e-9
    hi = np.maximum(g0, g1) + 1e-9
    assert np.all((tau_hat >= lo) & (tau_hat <= hi))


def test_x_learner_effect_models_fit_imputed_effects():
    # stage two is fit from arm moments; it must equal a ridge on explicit
    # imputed effects
    x, t, y, _ = _randomized(1_500, 11, "linear")
    x = x * [1.0, 4.0, 0.3] + [2.0, -1.0, 0.0]
    est = fit_estimator("X", x, t, y)
    treated, control = t == 1, t == 0
    f1, f0 = fit_ridge(x[treated], y[treated]), fit_ridge(x[control], y[control])
    d1 = y[treated] - lin_predict(f0, x[treated])
    d0 = lin_predict(f1, x[control]) - y[control]
    for name, rows, target in (("g1", treated, d1), ("g0", control, d0)):
        want = fit_ridge(x[rows], target).weights
        assert np.allclose(est.models[name].weights, want, rtol=1e-10, atol=1e-12)


def test_dr_learner_effect_model_fits_cross_fit_pseudo_outcomes():
    # the final stage accumulates its target fold by fold; it must equal a
    # ridge on the explicitly cross-fit pseudo-outcomes over all rows
    rng = np.random.default_rng(12)
    n = 1_001
    x = rng.normal(size=(n, 3)) * [1.0, 2.0, 0.5] + [0.0, 3.0, -1.0]
    t = (rng.random(n) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    y = 2.0 * t + x[:, 0] - x[:, 2] + 0.3 * rng.normal(size=n)
    phi = np.empty(n)
    for current in (0, 1):
        fit_rows, apply_rows = np.arange(n) % 2 != current, np.arange(n) % 2 == current
        xf, tf, yf = x[fit_rows], t[fit_rows], y[fit_rows]
        m1 = fit_ridge(xf[tf == 1], yf[tf == 1])
        m0 = fit_ridge(xf[tf == 0], yf[tf == 0])
        prop = fit_logistic(xf, tf)
        xa = x[apply_rows]
        phi[apply_rows] = doubly_robust_effects(
            y[apply_rows], t[apply_rows],
            lin_predict(m1, xa), lin_predict(m0, xa), lin_predict(prop, xa),
        )
    want = fit_ridge(x, phi).weights
    got = fit_estimator("DR", x, t, y).models["effect"].weights
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_dr_pseudo_outcomes_debias_wrong_propensity():
    # correct outcome models, propensity forced to 0.5: mean stays at c
    rng = np.random.default_rng(5)
    n = 10_000
    x = rng.normal(size=(n, 2))
    p_true = 1 / (1 + np.exp(-x[:, 0]))  # confounded assignment
    t = (rng.random(n) < p_true).astype(float)
    m0 = x[:, 0]
    m1 = m0 + 3.0
    y = np.where(t == 1, m1, m0) + 0.2 * rng.normal(size=n)
    phi = doubly_robust_effects(y, t, m1, m0, np.full(n, 0.5))
    assert abs(phi.mean() - 3.0) < 0.05


def test_dr_learner_recovers_constant_effect_under_confounding():
    rng = np.random.default_rng(6)
    n = 10_000
    x = rng.normal(size=(n, 2))
    p_true = 1 / (1 + np.exp(-1.5 * x[:, 0]))
    t = (rng.random(n) < p_true).astype(float)
    y = 3.0 * t + x[:, 0] + 0.3 * rng.normal(size=n)
    est = fit_estimator("DR", x, t, y)
    assert abs(est.predict(x).mean() - 3.0) < 0.1


def test_zero_outcome_gives_zero_effect():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 2))
    t = (rng.random(200) < 0.5).astype(float)
    y = np.zeros(200)
    tau_hat = fit_estimator("DR", x, t, y).predict(x)
    assert np.allclose(tau_hat, 0.0, atol=1e-10)


@pytest.mark.parametrize("kind", ["S", "T"])
def test_arm_swap_negates_effect_exactly(kind):
    x, t, y, _ = _randomized(2_000, 8, "linear")
    tau = fit_estimator(kind, x, t, y).predict(x)
    tau_swapped = fit_estimator(kind, x, 1.0 - t, y).predict(x)
    assert np.allclose(tau_swapped, -tau, atol=1e-10)


@pytest.mark.parametrize("kind", ["S", "T"])
def test_affine_outcome_equivariance(kind):
    x, t, y, _ = _randomized(2_000, 9, "linear")
    tau = fit_estimator(kind, x, t, y).predict(x)
    tau_scaled = fit_estimator(kind, x, t, -2.5 * y + 7.0).predict(x)
    assert np.allclose(tau_scaled, -2.5 * tau, atol=1e-8)


def test_randomized_consistency_across_sample_sizes():
    # mean effect converges to the true average effect as n grows
    errors = {}
    for n in (500, 2000, 8000):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=(n, 2))
        t = (rng.random(n) < 0.5).astype(float)
        tau = 1.0 + x[:, 0]
        y = t * tau + x[:, 1] + 0.5 * rng.normal(size=n)
        for kind in ("S", "T", "X", "DR"):
            est = fit_estimator(kind, x, t, y)
            err = abs(est.predict(x).mean() - tau.mean())
            errors.setdefault(kind, []).append(err)
    for kind, errs in errors.items():
        assert errs[-1] < 0.08, f"{kind} mean effect off by {errs[-1]:.3f} at n=8000"


def test_empty_arm_rejected():
    x = np.ones((10, 1))
    with pytest.raises(DegenerateArms):
        fit_estimator("T", x, np.ones(10), np.ones(10))


def test_prediction_dimension_checked():
    x, t, y, _ = _randomized(200, 10, "null")
    est = fit_estimator("T", x, t, y)
    with pytest.raises(DimensionMismatch):
        est.predict(x[:, :2])


# S is left out: its design's t*c column is a multiple of its t column, so
# ridge splits their weight and the effect moves by about 1e-8, a correct
# ridge answer that no constant-column rule can remove
@pytest.mark.parametrize("kind", ["T", "X", "DR"])
@pytest.mark.parametrize("c", [0.1, 1 / 3, -7.3e5, 2.5, 0.0])
def test_constant_column_leaves_effects_unchanged(kind, c):
    """A constant feature, whatever its value, moves no predicted effect."""
    x, t, y, _ = _randomized(1400, 21, effect="linear")
    padded = np.column_stack([x, np.full(1400, c)])
    want = fit_estimator(kind, x, t, y).predict(x)
    got = fit_estimator(kind, padded, t, y).predict(padded)
    assert np.sqrt(np.mean((got - want) ** 2)) <= 1e-12 * np.sqrt(np.mean(want**2))
