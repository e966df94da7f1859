"""Metric formulas against direct substitution and brute-force oracles."""

import numpy as np
import pytest
from scipy.stats import rankdata

from hteselect.errors import DegenerateArms, LengthMismatch, NumericError
from hteselect.fit_metrics import (
    doubly_robust_effects,
    effect_mse,
    inclusion_error,
    mean_ranks,
    nn_imputed_effects,
    residual_risk,
)
from hteselect.harness import BenchmarkRow, assign_ranks, report


def tau_risk(tau_hat, y, t, m_hat, p_hat):
    """The TauRisk metric as the scorer and the harness compute it: the
    outcome residual first, then ``residual_risk``."""
    tau_hat, y, t, m_hat, p_hat = map(np.asarray, (tau_hat, y, t, m_hat, p_hat))
    return residual_risk(tau_hat, y - m_hat, t, p_hat)


def nn_pehe(tau_hat, x, y, t):
    """The NNPEHE metric as the scorer computes it."""
    return effect_mse(tau_hat, nn_imputed_effects(x, y, t))


def cfcv(tau_hat, y, t, m1_hat, m0_hat, p_hat):
    """The CFCV metric as the scorer computes it."""
    return effect_mse(tau_hat, doubly_robust_effects(y, t, m1_hat, m0_hat, p_hat))

# ---------------------------------------------------------------------------
# tau risk
# ---------------------------------------------------------------------------


def test_tau_risk_zero_residuals():
    value = tau_risk(
        tau_hat=[1.0, 1.0], y=[1.0, 0.0], t=[1.0, 0.0],
        m_hat=[0.5, 0.5], p_hat=[0.5, 0.5],
    )
    assert value == 0.0


def test_tau_risk_collapses_to_outcome_residual():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    m = rng.normal(size=50)
    t = (rng.random(50) < 0.5).astype(float)
    p = np.full(50, 0.4)
    got = tau_risk(np.zeros(50), y, t, m, p)
    assert np.isclose(got, np.mean((y - m) ** 2))


def test_tau_risk_direct_substitution():
    tau_hat = np.array([0.5, -1.0, 2.0])
    y = np.array([1.0, 0.0, 3.0])
    t = np.array([1.0, 0.0, 1.0])
    m = np.array([0.2, 0.1, 2.0])
    p = np.array([0.6, 0.3, 0.7])
    expected = np.mean(((y - m) - (t - p) * tau_hat) ** 2)
    assert np.isclose(tau_risk(tau_hat, y, t, m, p), expected)


def test_tau_risk_quadratic_scaling_scan():
    # R(c * tau_hat) is a parabola in c with nonnegative curvature; once the
    # vertex is bracketed, doubling c away from it never lowers the value
    rng = np.random.default_rng(1)
    n = 100
    y, m = rng.normal(size=n), rng.normal(size=n)
    t = (rng.random(n) < 0.5).astype(float)
    p = np.clip(rng.random(n), 0.2, 0.8)
    tau_hat = rng.normal(size=n)
    grid = np.linspace(-4.0, 4.0, 81)
    values = np.array([tau_risk(c * tau_hat, y, t, m, p) for c in grid])
    second_diff = np.diff(values, 2)
    assert np.all(second_diff > -1e-9)
    vertex = grid[int(np.argmin(values))]
    assert -4.0 < vertex < 4.0
    for c in grid:
        if c > max(vertex, 0.0) and 2 * c <= grid[-1]:
            assert tau_risk(2 * c * tau_hat, y, t, m, p) >= values[grid.tolist().index(c)] - 1e-12


def test_tau_risk_permutation_invariant():
    rng = np.random.default_rng(2)
    n = 40
    args = [rng.normal(size=n), rng.normal(size=n),
            (rng.random(n) < 0.5).astype(float), rng.normal(size=n),
            np.clip(rng.random(n), 0.1, 0.9)]
    perm = rng.permutation(n)
    assert np.isclose(
        tau_risk(*args), tau_risk(*(a[perm] for a in args))
    )


# ---------------------------------------------------------------------------
# nearest-neighbor imputation
# ---------------------------------------------------------------------------


def test_nn_pehe_exact_duplicates():
    # duplicated covariates across arms with y(1) - y(0) = 3 exactly
    x = np.array([[0.0], [0.0], [5.0], [5.0]])
    t = np.array([1.0, 0.0, 1.0, 0.0])
    y = np.array([4.0, 1.0, 7.0, 4.0])
    tilde = nn_imputed_effects(x, y, t)
    assert np.allclose(tilde, 3.0)
    assert np.isclose(nn_pehe(np.full(4, 2.0), x, y, t), 1.0)


def test_nn_pehe_zero_when_matching_imputation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    t = (rng.random(30) < 0.5).astype(float)
    y = rng.normal(size=30)
    tilde = nn_imputed_effects(x, y, t)
    assert nn_pehe(tilde, x, y, t) == 0.0


def test_nn_pehe_matches_quadratic_scan_oracle():
    rng = np.random.default_rng(4)
    n = 20
    x = rng.normal(size=(n, 3))
    t = np.array([1.0] * 8 + [0.0] * 12)
    y = rng.normal(size=n)
    tau_hat = rng.normal(size=n)
    # brute-force all-pairs oracle on standardized features
    z = (x - x.mean(0)) / x.std(0)
    tilde = np.empty(n)
    for i in range(n):
        opp = np.flatnonzero(t != t[i])
        d = ((z[opp] - z[i]) ** 2).sum(1)
        j = opp[int(np.argmin(d))]
        tilde[i] = (2 * t[i] - 1) * (y[i] - y[j])
    expected = np.mean((tilde - tau_hat) ** 2)
    assert np.isclose(nn_pehe(tau_hat, x, y, t), expected)


def test_nn_pehe_needs_both_arms():
    with pytest.raises(DegenerateArms):
        nn_pehe(np.zeros(3), np.zeros((3, 1)), np.zeros(3), np.ones(3))
    with pytest.raises(DegenerateArms, match="labels must be 0 or 1"):  # both arms, and a 2
        nn_pehe(np.zeros(3), np.arange(3.0)[:, None], np.zeros(3), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(LengthMismatch):  # tau_hat shorter than the rows
        nn_pehe(np.zeros(2), np.zeros((3, 1)), np.zeros(3), np.array([0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# plug-in and doubly robust imputation
# ---------------------------------------------------------------------------


def test_plugin_tau_examples():
    tau = np.arange(10, dtype=float)
    assert effect_mse(tau, tau) == 0.0
    assert np.isclose(effect_mse(tau, tau + 0.7), 0.49)
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=10), rng.normal(size=10)
    assert np.isclose(effect_mse(a, b), np.mean((b - a) ** 2))


def test_cfcv_residual_terms_vanish_for_exact_models():
    rng = np.random.default_rng(6)
    n = 50
    x = rng.normal(size=n)
    t = (rng.random(n) < 0.5).astype(float)
    m0, m1 = x, x + 2.0
    y = np.where(t == 1, m1, m0)  # generated exactly by the arm models
    p = np.full(n, 0.5)
    tilde = doubly_robust_effects(y, t, m1, m0, p)
    assert np.allclose(tilde, 2.0)
    assert cfcv(tilde, y, t, m1, m0, p) == 0.0
    assert cfcv(np.full(n, 2.0), y, t, m1, m0, p) < 1e-30


def test_cfcv_direct_substitution():
    y = np.array([1.0, 2.0, 0.5])
    t = np.array([1.0, 0.0, 1.0])
    m1 = np.array([0.8, 1.5, 0.9])
    m0 = np.array([0.1, 1.8, 0.2])
    p = np.array([0.4, 0.5, 0.7])
    tau_hat = np.array([0.3, -0.2, 0.9])
    tilde = m1 - m0 + t * (y - m1) / p - (1 - t) * (y - m0) / (1 - p)
    assert np.isclose(cfcv(tau_hat, y, t, m1, m0, p), np.mean((tilde - tau_hat) ** 2))


def test_cfcv_rejects_out_of_range_propensity():
    with pytest.raises(NumericError):
        cfcv([0.0], [1.0], [1.0], [0.5], [0.2], [1.0])
    with pytest.raises(LengthMismatch):  # tau_hat longer than the nuisances
        cfcv([0.0, 0.0], [1.0], [1.0], [0.5], [0.2], [0.5])


@pytest.mark.parametrize("p", [0.0, 1.0, np.nan], ids=["zero", "one", "nan"])
def test_propensity_guards_raise_numeric_error(p):
    p_hat = np.array([0.5, p, 0.5])
    ones = np.ones(3)
    with pytest.raises(NumericError, match="strictly inside"):
        tau_risk(ones, ones, ones, ones, p_hat)
    with pytest.raises(NumericError, match="strictly inside"):
        doubly_robust_effects(ones, ones, ones, ones, p_hat)


# ---------------------------------------------------------------------------
# ground-truth metrics
# ---------------------------------------------------------------------------


def test_mse_true_examples():
    tau = np.linspace(-1, 1, 11)
    assert effect_mse(tau, tau) == 0.0
    assert np.isclose(effect_mse(tau + 0.3, tau), 0.09)
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=9), rng.normal(size=9)
    assert np.isclose(effect_mse(a, b), np.mean((b - a) ** 2))
    with pytest.raises(LengthMismatch):
        effect_mse(a, b[:-1])


def test_inclusion_error_cases():
    mask = np.array([True, True, True, True, False])
    assert inclusion_error([4], mask) == (0.0, True)
    assert inclusion_error([0, 1, 2, 3, 4], mask) == (1.0, True)
    assert inclusion_error([0, 1], mask) == (0.5, True)
    value, defined = inclusion_error([0, 1], np.zeros(3, dtype=bool))
    assert value == 0.0 and not defined


def test_metric_values_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 15
        tau_hat = rng.normal(size=n)
        y = rng.normal(size=n)
        t = (rng.random(n) < 0.5).astype(float)
        if t.min() == t.max():
            continue
        m = rng.normal(size=n)
        p = np.clip(rng.random(n), 0.1, 0.9)
        assert tau_risk(tau_hat, y, t, m, p) >= 0.0
        assert effect_mse(tau_hat, rng.normal(size=n)) >= 0.0


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def _row(scm_id, method, mse):
    return BenchmarkRow(scm_id, method, "None", "T", "", 1, (0,), mse, 0.0, 0.0)


def test_rank_single_scm():
    rows = [_row("s0", m, mse) for m, mse in {"a": 1.0, "b": 2.0, "c": 3.0}.items()]
    assign_ranks(rows)
    assert [r.rank for r in rows] == [1.0, 2.0, 3.0]
    assert report(rows).rank_table["a"].mean == 1.0


def test_rank_all_ties_share_mean():
    np.testing.assert_array_equal(mean_ranks(np.array([5.0, 5.0, 5.0])), [2.0, 2.0, 2.0])


def test_rank_matches_brute_force_over_five_scms():
    rng = np.random.default_rng(9)
    methods = ["m1", "m2", "m3", "m4"]
    table = {
        f"s{i}": {m: float(rng.integers(1, 6)) for m in methods} for i in range(5)
    }
    rows = [_row(scm, m, mse) for scm, mse_map in table.items() for m, mse in mse_map.items()]
    assign_ranks(rows)
    per_scm = {(r.scm_id, r.method): r.rank for r in rows}
    for scm, mse_map in table.items():
        for m in methods:
            better = sum(1 for v in mse_map.values() if v < mse_map[m])
            equal = sum(1 for v in mse_map.values() if v == mse_map[m])
            expected = better + (equal + 1) / 2
            assert per_scm[scm, m] == expected
    summary = report(rows).rank_table
    for m in methods:
        vals = [per_scm[s, m] for s in table]
        assert np.isclose(summary[m].mean, np.mean(vals))
        assert np.isclose(summary[m].sd, np.std(vals))
        assert summary[m].count == len(table)


def test_ranks_sum_to_triangular_number():
    rng = np.random.default_rng(10)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        mse = np.array([float(rng.choice([1.0, 2.0, 2.0, 3.0])) for _ in range(k)])
        assert np.isclose(mean_ranks(mse).sum(), k * (k + 1) / 2)


@pytest.mark.parametrize(
    "values",
    [
        [3.0, 1.0, 3.0, 2.0, 1.0],  # ties
        [np.inf, 1.0, np.inf, -np.inf, 0.5],  # infinities, tied and not
        [4.2],  # a single method
        [1.0, np.nan, 2.0],  # NaN: every rank NaN
    ],
)
def test_rank_matches_scipy_rankdata(values):
    want = rankdata(values, method="average")
    np.testing.assert_array_equal(mean_ranks(np.array(values)), want)
