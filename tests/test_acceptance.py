"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 3 and 4 share one benchmark run (module-scoped fixture).
"""

import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from hteselect.estimators import fit_estimator
from hteselect.fit_metrics import effect_mse
from hteselect.harness import ExperimentConfig, MethodSpec, report, rows_to_csv, run_experiment
from hteselect.hte_fit import SubsetScorer, greedy_select
from hteselect.scm_gen import ScmSpec, generate, sample_noise, sample_or_retry, simulate_arms
from hteselect.structure_fit import (
    CiTestConfig,
    DataOrienter,
    DSepOracle,
    FisherZTester,
    GraphOrienter,
    structure_fit,
)

from graphs import build_graph


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE #{num} {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


# ---------------------------------------------------------------------------
# 1. oracle structure recovery
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_structure_recovery(
    collider_graph, mediator_graph, multivariable_graph
):
    cases = [
        (collider_graph, [0, 3], {3}),
        (mediator_graph, [0, 2], {2}),
        (multivariable_graph, [0, 1, 3, 4, 5, 6, 7, 9], {3, 5, 6, 9}),
    ]
    ok = True
    for graph, feats, want in cases:
        for _ in range(5):  # deterministic, but demanded for every run
            res = structure_fit(
                DSepOracle(graph), GraphOrienter(graph), graph.t_node, graph.y_node,
                feats, CiTestConfig(),
            )
            removed = set(feats) - set(res.selected)
            ok = ok and removed == want
    _verdict(1, "oracle recovery removes exactly {L}/{M}/{B,D,E,G}", ok)


# ---------------------------------------------------------------------------
# 2. data-driven structure recovery
# ---------------------------------------------------------------------------


def _mediator_style_dataset(seed, n=4000):
    rng = np.random.default_rng(seed)
    coef = {}
    for edge in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        coef[edge] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    graph = build_graph(4, list(coef), t=1, y=3, mediators=(2,), coef=coef)
    spec = ScmSpec(d=4, p_e=0.5, sigma=0.0, rho=0.5, gamma=True, m=1,
                   p_h=0, m_p=False, n=n, seed=seed)
    return generate(graph, spec, rng)


def test_criterion_2_data_driven_recovery():
    cfg = CiTestConfig(alpha=0.05, max_cond=3)
    excluded = kept = 0
    for seed in range(50):
        ds = _mediator_style_dataset(seed)
        stacked = np.column_stack([ds.x, ds.t, ds.y])
        res = structure_fit(FisherZTester(stacked, cfg), DataOrienter(stacked.T, binary_col=2),
                            2, 3, (0, 1), cfg)
        excluded += 1 not in res.selected
        kept += 0 in res.selected
    ok = excluded >= 40 and kept >= 40
    _verdict(
        2, "data-driven mediator excluded / confounder kept at n=4000",
        ok, f"excluded {excluded}/50, kept {kept}/50, bars 40/50",
    )


# ---------------------------------------------------------------------------
# 3 + 4. desk-scale directional reproduction and inclusion error (shared run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_scale_rows():
    # rho = 0.1 sits inside the generator's standard noise-magnitude range;
    # at the desk-scale n = 2000 it keeps the selection metric's signal
    # above its sampling noise (see the decisions notes)
    config = ExperimentConfig(
        base=dict(d=10, p_e=0.3, sigma=0.2, rho=0.1, gamma=True, m=1, p_h=1,
                  m_p=False, n=2000),
        grid={"d": [10, 20], "m": [1, 2]},
        methods=(
            MethodSpec("None", "T"),
            MethodSpec("HteFitF", "T", "TauRisk"),
            MethodSpec("StructureFit", "T"),
            MethodSpec("HteFS", "T", "TauRisk"),
            MethodSpec("OracleValid", "T"),
        ),
        replicates=50,
        master_seed=20_240,
        record_timing=False,
    )
    rows, _ = run_experiment(config)
    return rows


def test_criterion_3_rank_ordering(desk_scale_rows):
    summary = report(desk_scale_rows)
    ranks = {m: rs.mean for m, rs in summary.rank_table.items()}
    oracle = ranks["OracleValid+T"]
    combined = ranks["HteFS(TauRisk)+T"]
    vanilla = ranks["None+T"]
    by_scm: dict = {}
    for r in desk_scale_rows:
        by_scm.setdefault(r.scm_id, {})[r.selector] = r.mse
    wins = sum(
        1 for d in by_scm.values() if d["HteFS"] < d["None"]
    )
    total = len(by_scm)
    ok = oracle < combined < vanilla and wins >= 0.6 * total
    _verdict(
        3, "rank ordering oracle < combined < vanilla, >=60% head-to-head",
        ok,
        f"ranks {oracle:.2f} < {combined:.2f} < {vanilla:.2f}, wins {wins}/{total}",
    )


def test_criterion_4_inclusion_error(desk_scale_rows):
    summary = report(desk_scale_rows)
    ie = summary.inclusion.get("HteFS(TauRisk)+T", float("nan"))
    ok = ie < 0.30 and ie < summary.random_reference
    _verdict(4, "combined-pipeline inclusion error below 0.30 and random 0.5",
             ok, f"IE {ie:.3f}")


# ---------------------------------------------------------------------------
# 5. risk-metric validity
# ---------------------------------------------------------------------------


def _alignment_dataset(seed, n=4000):
    """Pre-treatment features only: 2 confounders, 2 modifiers, 7 noise.

    The risk metric's alignment guarantee covers pre-treatment covariate
    subsets; post-treatment columns are the second pipeline stage's job.
    """
    rng = np.random.default_rng(seed)
    edges = {}
    for e in [(0, 4), (1, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]:
        edges[e] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    g = build_graph(13, list(edges), t=4, y=5, hte={5: (2, 3)}, coef=edges)
    spec = ScmSpec(d=13, p_e=0.3, sigma=0.0, rho=0.5, gamma=True, m=0, p_h=2,
                   m_p=False, n=n, seed=seed)
    return generate(g, spec, rng)


def test_criterion_5_risk_metric_tracks_true_error():
    rhos = []
    for seed in range(20):
        ds = _alignment_dataset(100 + seed)
        k = ds.x.shape[1]
        scorer = SubsetScorer(ds.x, ds.t, ds.y, metric="TauRisk", estimator="T", seed=seed)
        order = np.random.default_rng(seed).permutation(k)
        risks, mses = [], []
        for size in range(1, k + 1):  # 11 nested subsets per dataset
            cols = tuple(sorted(int(c) for c in order[:size]))
            risks.append(scorer(cols))
            per_split = []
            for tr, va in scorer.splits:
                est = fit_estimator("T", ds.x[np.ix_(tr, cols)], ds.t[tr], ds.y[tr])
                tau_hat = est.predict(ds.x[np.ix_(va, cols)])
                per_split.append(effect_mse(tau_hat, ds.tau[va]))
            mses.append(float(np.mean(per_split)))
        rhos.append(spearmanr(risks, mses).statistic)
    mean_rho = float(np.mean(rhos))
    _verdict(5, "mean Spearman(risk, true MSE) over 20 seeds > 0.3",
             mean_rho > 0.3, f"mean rho {mean_rho:.3f}")


# ---------------------------------------------------------------------------
# 6. CI calibration
# ---------------------------------------------------------------------------


def test_criterion_6_ci_calibration():
    rng = np.random.default_rng(1)
    cfg = CiTestConfig(alpha=0.05, max_cond=3)
    rejections = 0
    trials = 2000
    for _ in range(trials):
        data = rng.normal(size=(100, 2))
        tester = FisherZTester(data, cfg)
        rejections += not tester.independent(0, 1, ())
    rate = rejections / trials
    _verdict(6, "independent-Gaussian rejection rate within [0.03, 0.07]",
             0.03 <= rate <= 0.07, f"rate {rate:.4f}")


# ---------------------------------------------------------------------------
# 7. counterfactual oracle
# ---------------------------------------------------------------------------


def _path_product_oracle(graph, src, dst):
    total = 0.0
    stack = [(src, 1.0)]
    while stack:
        node, prod = stack.pop()
        if node == dst:
            total += prod
            continue
        for child in np.flatnonzero(graph.adj[node]):
            stack.append((int(child), prod * graph.coef[node, child]))
    return total


def test_criterion_7_counterfactual_oracle():
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 100:
        seed += 1
        spec = ScmSpec(d=8, p_e=0.4, sigma=0.2, rho=0.5,
                       gamma=bool(seed % 2), m=seed % 2, p_h=0, m_p=False,
                       n=50, seed=seed)
        try:
            graph, _ = sample_or_retry(spec, np.random.default_rng(seed))
        except Exception:
            continue
        noise = sample_noise(spec, np.random.default_rng(seed + 10_000))
        arm1, arm0, _, _ = simulate_arms(graph, spec, noise)
        tau = arm1[:, graph.y_node] - arm0[:, graph.y_node]
        expected = _path_product_oracle(graph, graph.t_node, graph.y_node)
        worst = max(worst, float(np.abs(tau - expected).max()))
        checked += 1
    _verdict(7, "simulated effects match path-product oracle on 100 linear SCMs",
             worst < 1e-8, f"max |dev| {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. estimator sanity
# ---------------------------------------------------------------------------


def test_criterion_8_estimator_sanity():
    c = 1.7
    rng = np.random.default_rng(8)
    n = 10_000
    x = rng.normal(size=(n, 4))
    t = (rng.random(n) < 0.5).astype(float)
    y = c * t + x @ np.array([0.8, -0.5, 0.3, 0.0]) + 0.5 * rng.normal(size=n)
    tol = abs(c) * 0.05 + 0.02
    devs = {}
    for kind in ("S", "T", "X", "DR"):
        est = fit_estimator(kind, x, t, y)
        devs[kind] = abs(float(est.predict(x).mean()) - c)
    ok = all(d <= tol for d in devs.values())
    detail = ", ".join(f"{k} {d:.3f}" for k, d in devs.items())
    _verdict(8, f"all four estimators recover constant effect within {tol:.3f}",
             ok, detail)


# ---------------------------------------------------------------------------
# 9. algorithmic traces
# ---------------------------------------------------------------------------


def test_criterion_9_scripted_selection_traces():
    forward_table = {
        frozenset({0}): 5.0, frozenset({1}): 3.0, frozenset({2}): 6.0,
        frozenset({0, 1}): 2.0, frozenset({1, 2}): 4.0, frozenset({0, 1, 2}): 2.5,
    }
    ftrace = greedy_select(lambda c: forward_table[frozenset(c)], [0, 1, 2], "forward")
    forward_ok = (
        ftrace.final_set == (0, 1)
        and [s.column for s in ftrace.steps if s.accepted] == [1, 0]
        and ftrace.final_score == 2.0
    )

    backward_table = {frozenset({0, 1, 2}): 3.0, frozenset({0, 1}): 1.0}
    btrace = greedy_select(
        lambda c: backward_table.get(frozenset(c), 4.0), [0, 1, 2], "backward"
    )
    backward_ok = (
        btrace.final_set == (0, 1)
        and [s.column for s in btrace.steps if s.accepted] == [2]
    )

    stable = greedy_select(
        lambda c: 1.0 if len(c) == 3 else 5.0, [0, 1, 2], "backward"
    )
    no_removal_ok = stable.final_set == (0, 1, 2)

    _verdict(9, "scripted accept/remove sequences reproduced exactly",
             forward_ok and backward_ok and no_removal_ok)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_benchmark_determinism(monkeypatch):
    from hteselect import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any machine
    config = ExperimentConfig(
        base=dict(d=8, p_e=0.35, sigma=0.2, rho=0.5, gamma=True, m=1, p_h=1,
                  m_p=False, n=800),
        methods=(
            MethodSpec("None", "T"),
            MethodSpec("HteFitF", "T", "TauRisk"),
            MethodSpec("OracleValid", "T"),
        ),
        replicates=4,
        master_seed=99,
        record_timing=False,
    )
    rows_a, _ = run_experiment(config)
    rows_b, _ = run_experiment(config)
    sequential_identical = rows_to_csv(rows_a) == rows_to_csv(rows_b)

    concurrent = ExperimentConfig(
        base=config.base, methods=config.methods, replicates=config.replicates,
        master_seed=config.master_seed, record_timing=False, workers=2,
    )
    rows_c, _ = run_experiment(concurrent)
    concurrent_identical = rows_to_csv(rows_c) == rows_to_csv(rows_a)

    _verdict(10, "rerun and concurrent benchmark CSVs byte-identical",
             sequential_identical and concurrent_identical)
