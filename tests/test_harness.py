"""Pipeline composition, experiment determinism, ranking, reporting."""

import dataclasses
import itertools
import json
import math
import os
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hteselect.errors import ConfigError
from hteselect.estimators import ESTIMATOR_KINDS
from hteselect.fit_metrics import METRIC_KINDS
from hteselect.harness import (
    SELECTORS,
    BenchmarkRow,
    ExperimentConfig,
    MethodSpec,
    assign_ranks,
    config_from_json,
    report,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
    run_selector,
)
from hteselect.scm_gen import ScmSpec, generate, make_dataset

from graphs import build_graph


def _base_config(**kw):
    cfg = dict(
        base=dict(d=6, p_e=0.4, sigma=0.2, rho=0.5, gamma=True, m=1, p_h=0,
                  m_p=False, n=400),
        methods=(MethodSpec("None", "T"), MethodSpec("OracleValid", "T")),
        replicates=2,
        master_seed=5,
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


# ---------------------------------------------------------------------------
# combined pipeline
# ---------------------------------------------------------------------------


def test_hte_fs_scripted_stage_composition(monkeypatch):
    # stage one returns {0, 1, 2}; discovery forbids {2}; result {0, 1}
    from hteselect import harness

    sf_mod = harness.structure_fit

    class FakeTrace:
        final_set = (0, 1, 2)

        def to_dict(self):
            return {"final_set": [0, 1, 2]}

    monkeypatch.setattr(harness.hte_fit, "select_features", lambda *a, **k: FakeTrace())

    def fake_structure(tester, orienter, t_col, y_col, candidates, cfg):
        return sf_mod.StructureFitResult(
            selected=(0, 1), forbidden=frozenset({t_col, 2}), edges=((t_col, 2),)
        )

    monkeypatch.setattr(sf_mod, "structure_fit", fake_structure)
    rng = np.random.default_rng(0)
    x, t, y = rng.normal(size=(50, 3)), (rng.random(50) < 0.5).astype(float), rng.normal(size=50)
    selected, combined, flags = harness.run_selector(MethodSpec("HteFS"), x, t, y)
    assert selected == (0, 1)
    assert combined["forbidden"] == [2, 3]
    assert combined["flags"] == flags == []
    assert flags is not combined["flags"]  # a harness row appends to its flags


def test_hte_fs_falls_back_when_everything_forbidden(monkeypatch):
    from hteselect import harness

    sf_mod = harness.structure_fit

    class FakeTrace:
        final_set = (1,)

        def to_dict(self):
            return {"final_set": [1]}

    monkeypatch.setattr(harness.hte_fit, "select_features", lambda *a, **k: FakeTrace())

    def fake_structure(tester, orienter, t_col, y_col, candidates, cfg):
        return sf_mod.StructureFitResult(
            selected=(), forbidden=frozenset({t_col, 1}), edges=((t_col, 1),)
        )

    monkeypatch.setattr(sf_mod, "structure_fit", fake_structure)
    rng = np.random.default_rng(1)
    x, t, y = rng.normal(size=(50, 3)), (rng.random(50) < 0.5).astype(float), rng.normal(size=50)
    selected, combined, flags = harness.run_selector(MethodSpec("HteFS"), x, t, y)
    assert selected == (1,)
    assert combined["flags"] == flags == ["fallback_stage_one"]


def test_hte_fs_without_post_treatment_features_keeps_stage_one():
    # no-mediator graph: t -> y direct; features are pre-treatment only, so
    # discovery should prune nothing (the treatment-edge orientation rule has
    # a small false-child tail, covered statistically in test_structure_fit;
    # this fixture checks the composition path on a well-behaved draw)
    coef = {(0, 1): 0.8, (0, 2): 0.7, (1, 2): 0.9, (3, 2): 0.5}
    graph = build_graph(4, list(coef), t=1, y=2, coef=coef)
    spec = ScmSpec(d=4, p_e=0.5, sigma=0.0, rho=0.5, gamma=True, m=0, p_h=0,
                   m_p=False, n=4000, seed=0)
    ds = generate(graph, spec, np.random.default_rng(0))
    selected, combined, flags = run_selector(MethodSpec("HteFS"), ds.x, ds.t, ds.y, seed=0)
    assert selected == tuple(combined["stage_one"]["final_set"])
    assert combined["flags"] == flags == []


@pytest.mark.parametrize("selector", ["OracleParents", "OracleValid", "OracleOSet"])
def test_oracle_selector_without_graph_is_a_config_error(selector):
    rng = np.random.default_rng(0)
    x, t, y = rng.normal(size=(20, 3)), np.arange(20) % 2.0, rng.normal(size=20)
    with pytest.raises(ConfigError, match=selector):
        run_selector(MethodSpec(selector), x, t, y)


@pytest.mark.parametrize("selector", ["None", "OracleValid", "StructureFit"])
def test_graph_of_other_data_is_a_config_error(selector):
    # d = 8: six feature nodes, given the first three feature columns
    spec = ScmSpec(d=8, p_e=0.4, sigma=0.2, rho=0.5, gamma=True, m=1, p_h=0, m_p=False,
                   n=100, seed=5)
    graph, ds, _ = make_dataset(spec)
    with pytest.raises(ConfigError, match="6 feature nodes, but the data has 3 feature columns"):
        run_selector(MethodSpec(selector), ds.x[:, :3], ds.t, ds.y, graph)


def test_mediator_excluded_from_pipeline_monte_carlo():
    # mediator graph with noise columns: M leaves the combined selection
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        coef = {}
        for edge in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            coef[edge] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        graph = build_graph(4, list(coef), t=1, y=3, mediators=(2,), coef=coef)
        spec = ScmSpec(d=4, p_e=0.5, sigma=0.0, rho=0.5, gamma=True, m=1,
                       p_h=0, m_p=False, n=4000, seed=seed)
        ds = generate(graph, spec, rng)
        noise = rng.normal(size=(4000, 2))
        x = np.column_stack([ds.x, noise])  # cols: 0=X, 1=M, 2-3 noise
        selected, _, _ = run_selector(MethodSpec("HteFS"), x, ds.t, ds.y, seed=seed)
        hits += 1 not in selected
    assert hits >= 40


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_two_method_experiment_structure():
    rows, traces = run_experiment(_base_config(replicates=1))
    assert len(rows) == 2
    assert {r.rank for r in rows} == {1.0, 2.0}
    assert all(r.mse >= 0 for r in rows)
    assert all(r.scm_id == "scm0000" for r in rows)


def test_rerun_is_byte_identical_without_timing():
    config = _base_config(record_timing=False)
    rows_a, _ = run_experiment(config)
    rows_b, _ = run_experiment(config)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)


def test_concurrent_execution_matches_sequential(monkeypatch):
    from hteselect import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any machine
    sequential = _base_config(replicates=3, record_timing=False)
    concurrent = _base_config(replicates=3, record_timing=False, workers=2)
    rows_a, _ = run_experiment(sequential)
    rows_b, _ = run_experiment(concurrent)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)


_SHARED_KIND_METHODS = tuple(
    MethodSpec(selector, kind)
    for kind in ESTIMATOR_KINDS
    for selector in ("None", "OracleValid", "OracleParents")
)


def test_rows_do_not_depend_on_the_other_methods():
    """Every S, T, X and DR row, used by three methods each, has the same
    selection, flags, mse and tau_risk bits in the config's order, in
    reverse order and run alone: a replicate's shared statistics are the
    same whichever methods read them, and no fit warm-starts from
    another method's."""

    def cells(methods):
        rows, _ = run_experiment(_base_config(methods=tuple(methods), record_timing=False))
        return {(r.scm_id, r.method): repr((r.selected, r.flags, r.mse, r.tau_risk))
                for r in rows}

    together = cells(_SHARED_KIND_METHODS)
    assert cells(reversed(_SHARED_KIND_METHODS)) == together
    alone = {}
    for method in _SHARED_KIND_METHODS:
        alone.update(cells([method]))
    assert alone == together


@pytest.mark.parametrize(
    "replicates, workers, pools", [(1, 3, []), (2, 5, [2]), (64, 64, [4])]
)
def test_worker_count_is_capped_by_replicates(monkeypatch, replicates, workers, pools):
    # a recording stand-in for the process pool on a 4-CPU machine: it runs
    # in this process
    from hteselect import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    config = _base_config(replicates=replicates, workers=workers, record_timing=False)
    rows, _ = run_experiment(config)
    assert asked == pools
    assert rows_to_csv(rows) == rows_to_csv(run_experiment(
        dataclasses.replace(config, workers=1))[0])


class _CountingList(list):
    """A grid value list that counts the values read from it."""

    reads = 0

    def __getitem__(self, index):
        _CountingList.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        _CountingList.reads += len(self)
        return super().__iter__()


def test_grid_cell_of_each_replicate_matches_the_product_order(monkeypatch):
    from hteselect import harness

    grid = {"n": [300, 400, 500], "d": [6, 7], "p_e": [0.4, 0.5], "m": [0, 1, 1, 0, 1]}
    keys = sorted(grid)
    cells = list(itertools.product(*(grid[k] for k in keys)))  # last key fastest
    monkeypatch.setattr(_CountingList, "reads", 0)
    config = _base_config(replicates=130, grid={k: _CountingList(v) for k, v in grid.items()})
    # construction checks each of the 60 cells once, reading one value per key
    assert _CountingList.reads == len(cells) * len(keys)
    for r in range(130):
        _CountingList.reads = 0
        spec = config.spec_for_replicate(r)
        assert _CountingList.reads == len(keys)  # only the cell of replicate r
        assert tuple(getattr(spec, k) for k in keys) == cells[r % len(cells)]
        assert spec.seed == harness._derived_seed(config.master_seed, r, 0)


def test_grid_distributes_over_replicates():
    config = _base_config(replicates=4, grid={"d": [6, 8]})
    specs = [config.spec_for_replicate(r) for r in range(4)]
    assert [s.d for s in specs] == [6, 8, 6, 8]
    assert len({s.seed for s in specs}) == 4


def test_selection_never_reads_test_rows():
    # corrupt the held-out partition's outcomes: selection and fitted
    # estimators must not change; only evaluation columns may differ
    from hteselect import harness

    config = _base_config(
        replicates=1,
        methods=(MethodSpec("HteFitF", "T"), MethodSpec("StructureFit", "T")),
        record_timing=False,
    )
    spec = config.spec_for_replicate(0)
    from hteselect.scm_gen import make_dataset

    graph, dataset, _ = make_dataset(spec)
    n = dataset.x.shape[0]
    split_rng = np.random.default_rng(harness._derived_seed(config.master_seed, 0, 1))
    order = split_rng.permutation(n)
    test_idx = order[int(round(config.split_ratio * n)):]

    rows_clean, _ = harness._run_replicate(config, 0)

    original_y = dataset.y.copy()
    original_t = dataset.t.copy()

    def corrupted_make(spec_arg):
        g, ds, a = make_dataset(spec_arg)
        ds.y[test_idx] = 1e6
        ds.tau[test_idx] = -1e6
        return g, ds, a

    import hteselect.harness as hmod

    old = hmod.make_dataset
    hmod.make_dataset = corrupted_make
    try:
        rows_corrupt, _ = hmod._run_replicate(config, 0)
    finally:
        hmod.make_dataset = old

    for clean, corrupt in zip(rows_clean, rows_corrupt):
        assert clean.selected == corrupt.selected  # selection untouched
        assert clean.mse != corrupt.mse  # evaluation did change
    assert np.array_equal(dataset.y, original_y)
    assert np.array_equal(dataset.t, original_t)


def test_failed_cells_recorded_and_ranked_last(monkeypatch):
    from hteselect import harness
    from hteselect.errors import HteSelectError

    original = harness.run_selector

    def sabotaged(method, *args, **kwargs):
        if method.selector == "StructureFit":
            raise HteSelectError("injected failure")
        return original(method, *args, **kwargs)

    monkeypatch.setattr(harness, "run_selector", sabotaged)
    config = _base_config(
        replicates=1,
        methods=(
            MethodSpec("None", "T"),
            MethodSpec("OracleValid", "T"),
            MethodSpec("StructureFit", "T"),
        ),
    )
    rows, _ = run_experiment(config)
    failed = [r for r in rows if r.failed]
    assert len(failed) == 1
    assert failed[0].selector == "StructureFit"
    assert failed[0].rank == 3.0  # the last place, after the two valid cells
    assert any(f.startswith("failed:") for f in failed[0].flags)


_REPLICATE_METHODS = (
    MethodSpec("None", "T"),
    MethodSpec("HteFitF", "T", "TauRisk"),
    MethodSpec("OracleValid", "T"),
)
_REPLICATE_BASE = dict(d=20, p_e=0.3, sigma=0.2, rho=0.1, gamma=True, m=1, p_h=1,
                       m_p=False, n=2000)


def _replicate_flags(base, master_seed):
    config = ExperimentConfig(base=base, methods=_REPLICATE_METHODS, replicates=1,
                              master_seed=master_seed, record_timing=False)
    rows, _ = run_experiment(config)
    assert [r.method for r in rows] == [m.method_id for m in _REPLICATE_METHODS]
    return [r.flags for r in rows]


def test_infeasible_replicate_fails_each_cell():
    base = dict(_REPLICATE_BASE, d=3, p_e=0.05, gamma=True, m=1)
    flags = _replicate_flags(base, 0)
    assert flags == [("failed:InfeasibleSpec",)] * len(_REPLICATE_METHODS)


def test_degenerate_replicates_fail_each_cell():
    # at n=6, master seed 1 draws a single-class treatment in make_dataset
    # and seed 13 leaves one class out of the train split, where the held-out
    # yardstick's propensity fit rejects it; no seed may abort the experiment
    base = dict(_REPLICATE_BASE, n=6)
    for seed in range(15):
        flags = _replicate_flags(base, seed)
        if seed in (1, 13):
            assert flags == [("failed:DegenerateArms",)] * len(_REPLICATE_METHODS)
        else:
            assert not any(f.startswith("failed") for f in flags[0] + flags[2])


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_replicate_error_fails_only_that_replicate(monkeypatch, workers):
    # the pool forks, so the patched selector is in the workers too
    from hteselect import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any machine
    config = _base_config(
        replicates=3, record_timing=False, workers=workers,
        methods=(MethodSpec("None", "T"), MethodSpec("HteFitF", "T"), MethodSpec("OracleValid")),
    )
    clean, _ = run_experiment(config)
    bad_seeds = {
        harness._derived_seed(config.master_seed, 1, 2, zlib.crc32(m.method_id.encode()))
        for m in config.methods
    }
    original = harness.run_selector

    def sabotaged(method, x_tr, t_tr, y_tr, graph, cfg, seed):
        if seed in bad_seeds and method.selector == "HteFitF":
            raise RuntimeError("injected bug")
        return original(method, x_tr, t_tr, y_tr, graph, cfg, seed)

    monkeypatch.setattr(harness, "run_selector", sabotaged)
    rows, _ = run_experiment(config)
    assert [r.scm_id for r in rows] == [r.scm_id for r in clean]
    for row, want in zip(rows, clean):
        if row.scm_id == "scm0001":
            assert row.flags == ("failed:RuntimeError",)
        else:
            assert row == want


@st.composite
def _scm_cells(draw):
    d = draw(st.integers(3, 12))
    return dict(
        d=d,
        p_e=draw(st.sampled_from([0.0, 0.3, 1.0])),
        sigma=draw(st.sampled_from([0.0, 0.2])),
        rho=draw(st.sampled_from([0.1, 1.0])),
        gamma=draw(st.booleans()),
        m=draw(st.integers(0, min(2, d - 2))),
        p_h=draw(st.integers(0, 2)),
        m_p=draw(st.booleans()),
        n=draw(st.one_of(st.integers(6, 40), st.integers(41, 400))),
    )


_PROPERTY_METHODS = (
    MethodSpec("None", "S"),
    MethodSpec("HteFitF", "X", "TauRisk"),
    MethodSpec("HteFitB", "DR", "CFCV"),
    MethodSpec("StructureFit", "T"),
    MethodSpec("HteFS", "T", "NNPEHE"),
    MethodSpec("OracleOSet", "T"),
)


@settings(max_examples=8)
@given(cell=_scm_cells(), workers=st.sampled_from([1, 2]), master_seed=st.integers(0, 2**16))
def test_any_scm_spec_gives_finite_or_failed_rows(cell, workers, master_seed):
    from hteselect import harness

    config = ExperimentConfig(
        base=cell, methods=_PROPERTY_METHODS, replicates=2, master_seed=master_seed,
        workers=workers, record_timing=False,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any machine
        rows, _ = run_experiment(config)
    assert len(rows) == 2 * len(_PROPERTY_METHODS)
    for row in rows:
        assert row.failed or math.isfinite(row.mse), row


# the cells and methods of the scaling properties; HTESELECT_SWEEP=1 turns
# them into a sweep of the ScmSpec space (d <= 12, n <= 1000, every selector)
# that takes minutes, where tier-1 keeps the narrow form
_SWEEP = os.environ.get("HTESELECT_SWEEP") == "1"
_SCALING_EXAMPLES = 300 if _SWEEP else 40
_SCALING_FEATURES = 10 if _SWEEP else 6  # the most feature columns of a cell: d - 2
_SCALING_CELLS = st.integers(3, _SCALING_FEATURES + 2).flatmap(
    lambda d: st.fixed_dictionaries(dict(
        d=st.just(d), p_e=st.floats(0.2, 0.8), sigma=st.sampled_from([0.0, 0.2]),
        rho=st.sampled_from([0.3, 1.0]), gamma=st.booleans(), m=st.integers(0, min(2, d - 2)),
        p_h=st.integers(0, 2), m_p=st.booleans(), n=st.integers(60, 1000 if _SWEEP else 400),
    ))
)
_SCALING_METHODS = st.builds(
    MethodSpec,
    st.sampled_from(SELECTORS if _SWEEP else ["HteFitF", "HteFitB", "StructureFit", "HteFS"]),
    st.sampled_from(ESTIMATOR_KINDS), st.sampled_from(METRIC_KINDS),
)


@settings(max_examples=_SCALING_EXAMPLES)
@given(
    cell=_SCALING_CELLS,
    method=_SCALING_METHODS,
    master_seed=st.integers(0, 2**16),
    exponents=st.lists(st.integers(-600, 600), min_size=_SCALING_FEATURES,
                       max_size=_SCALING_FEATURES),
    flips=st.lists(st.booleans(), min_size=_SCALING_FEATURES, max_size=_SCALING_FEATURES),
)
@example(  # the redo of column_moments summed a scaled column in another order before
    cell=dict(d=8, p_e=0.5, sigma=0.2, rho=1.0, gamma=True, m=1, p_h=1, m_p=False, n=200),
    method=MethodSpec("HteFitF", "DR", "TauRisk"), master_seed=0,
    exponents=[520, -520, 600, -600, 0, 3], flips=[True, False, True, False, False, True],
)
@example(  # squares of these columns over- and underflow without FisherZTester's prescale
    cell=dict(d=8, p_e=0.5, sigma=0.2, rho=1.0, gamma=True, m=1, p_h=1, m_p=False, n=200),
    method=MethodSpec("StructureFit", "T", "TauRisk"), master_seed=5,
    exponents=[600, -600, 600, -600, 600, -600], flips=[False, True, False, True, True, False],
)
def test_row_is_invariant_to_power_of_two_scaling_and_sign_flips(
    cell, method, master_seed, exponents, flips
):
    """Each feature column times +-2^e, with e in [-600, 600], leaves the
    replicate's row (selection, flags, mse, risk) and trace bit-identical:
    every statistic is taken on columns standardized or prescaled by powers
    of two, and both are exact on such a column."""
    from hteselect import harness

    config = ExperimentConfig(base=cell, methods=(method,), master_seed=master_seed,
                              record_timing=False)

    def transformed(spec):
        graph, data, attempts = make_dataset(spec)
        k = data.x.shape[1]
        signs = np.where(flips[:k], -1.0, 1.0)
        x = np.ldexp(data.x, exponents[:k]) * signs
        return graph, dataclasses.replace(data, x=x), attempts

    want = harness._run_replicate(config, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "make_dataset", transformed)
        got = harness._run_replicate(config, 0)
    assert repr(got) == repr(want)


@settings(max_examples=_SCALING_EXAMPLES)
@given(cell=_SCALING_CELLS, method=_SCALING_METHODS, master_seed=st.integers(0, 2**16),
       e=st.integers(-300, 300))
@example(  # every score gap is far below an absolute tolerance at this scale
    cell=dict(d=8, p_e=0.5, sigma=0.2, rho=1.0, gamma=True, m=1, p_h=1, m_p=False, n=200),
    method=MethodSpec("HteFitB", "T", "TauRisk"), master_seed=0, e=-300,
)
def test_outcome_scaling_scales_errors_and_scores_by_its_square(cell, method, master_seed, e):
    """y and tau times 2^e, with e in [-300, 300], leave the replicate's
    selection, flags and accepted steps bit-identical and multiply its mse,
    tau_risk and every step score by exactly 4^e: every fit and yardstick is
    linear in y, discovery sees y standardized, every greedy decision
    compares scores relative to each other, and inside this range a
    power-of-two factor rounds nothing."""
    from hteselect import harness

    config = ExperimentConfig(base=cell, methods=(method,), master_seed=master_seed,
                              record_timing=False)

    def transformed(spec):
        graph, data, attempts = make_dataset(spec)
        scaled = dataclasses.replace(data, y=np.ldexp(data.y, e), tau=np.ldexp(data.tau, e))
        return graph, scaled, attempts

    def times_4e(value):
        return float(np.ldexp(value, 2 * e))

    def scores_times_4e(trace):
        if isinstance(trace, dict):
            return {k: times_4e(v) if k in ("score", "final_score") else scores_times_4e(v)
                    for k, v in trace.items()}
        if isinstance(trace, list):
            return [scores_times_4e(v) for v in trace]
        return trace

    rows, traces = harness._run_replicate(config, 0)
    want = (
        [dataclasses.replace(r, mse=times_4e(r.mse), tau_risk=times_4e(r.tau_risk)) for r in rows],
        scores_times_4e(traces),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "make_dataset", transformed)
        got = harness._run_replicate(config, 0)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("mses, n_failed, want", [
    ((1.0, 1.0), 1, [1.5, 1.5, 3.0]),
    ((1.0, 2.0), 2, [1.0, 2.0, 3.5, 3.5]),
], ids=["tied_valid", "two_failed"])
def test_failed_cells_share_the_last_places(mses, n_failed, want):
    # an SCM's k ranks sum to k(k+1)/2 whatever fails
    rows = [BenchmarkRow("scm0000", "None+T", "None", "T", "", 1, (0,), mse, 0.0, 0.0)
            for mse in mses]
    rows += [BenchmarkRow("scm0000", "None+T", "None", "T", "", 0, (), math.nan, math.nan,
                          math.nan, flags=("failed:NumericError",)) for _ in range(n_failed)]
    assign_ranks(rows)
    assert [r.rank for r in rows] == want
    assert sum(want) == len(want) * (len(want) + 1) / 2


def test_rank_invariance_under_constant_shift():
    rows, _ = run_experiment(_base_config(replicates=2))
    shifted = [
        BenchmarkRow(**{**r.__dict__, "mse": r.mse + 100.0, "rank": 0.0})
        for r in rows
    ]
    assign_ranks(shifted)
    for a, b in zip(rows, shifted):
        assert a.rank == b.rank


# ---------------------------------------------------------------------------
# persistence and reporting
# ---------------------------------------------------------------------------


def test_results_csv_round_trip():
    rows, _ = run_experiment(_base_config())
    text = rows_to_csv(rows)
    head = text.splitlines()[0]
    assert head == (
        "scm_id,method,selector,estimator,metric,n_selected,selected,"
        "mse,tau_risk,inclusion_error,rank,wall_millis,flags"
    )
    back = rows_from_csv(text)
    assert rows_to_csv(back) == text


def test_report_single_method_rank_one():
    rows, _ = run_experiment(_base_config(methods=(MethodSpec("None", "T"),)))
    summary = report(rows)
    assert summary.rank_table["None+T"].mean == 1.0


def test_report_excludes_undefined_inclusion_rows():
    rows = [
        BenchmarkRow(
            scm_id="s0", method="None+T", selector="None", estimator="T", metric="",
            n_selected=1, selected=(0,), mse=1.0, tau_risk=1.0,
            inclusion_error=0.8, rank=1.0,
        ),
        BenchmarkRow(
            scm_id="s1", method="None+T", selector="None", estimator="T", metric="",
            n_selected=1, selected=(0,), mse=1.0, tau_risk=1.0,
            inclusion_error=0.0, rank=1.0,
            flags=("ie_undefined",),
        ),
        BenchmarkRow(
            scm_id="s2", method="None+T", selector="None", estimator="T", metric="",
            n_selected=0, selected=(), mse=float("nan"), tau_risk=float("nan"),
            inclusion_error=0.0, rank=1.0,
            flags=("failed:DegenerateArms",),
        ),
    ]
    summary = report(rows)
    assert summary.inclusion["None+T"] == 0.8
    back = rows_from_csv(rows_to_csv(rows))
    assert [r.ie_defined for r in rows] == [True, False, False]
    assert [r.ie_defined for r in back] == [True, False, False]
    assert report(back).inclusion["None+T"] == 0.8


def test_report_hand_aggregated_fixture():
    rows = []
    ranks = {"a": [1.0, 2.0], "b": [2.0, 1.0]}
    for i in range(2):
        for m in ("a", "b"):
            rows.append(
                BenchmarkRow(
                    scm_id=f"s{i}", method=m, selector="None", estimator="T",
                    metric="", n_selected=1, selected=(0,), mse=1.0,
                    tau_risk=1.0, inclusion_error=0.0,
                    rank=ranks[m][i],
                )
            )
    assert all(r.ie_defined for r in rows)
    summary = report(rows)
    assert summary.rank_table["a"].mean == 1.5
    assert summary.rank_table["b"].mean == 1.5
    assert "random half-selection" in summary.format()


def test_backward_selection_on_one_feature_scm_keeps_every_row():
    config = ExperimentConfig(
        base=dict(d=3, p_e=1.0, sigma=0.2, rho=0.5, gamma=True, m=0, p_h=0,
                  m_p=False, n=500),
        methods=(MethodSpec("None"), MethodSpec("HteFitB")),
        replicates=2,
    )
    rows, traces = run_experiment(config)
    assert len(rows) == 4
    assert not any(r.failed for r in rows)
    assert all(r.selected == (0,) for r in rows)
    assert traces["scm0000/HteFitB(TauRisk)+T"]["steps"] == []


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_json_round_trip():
    # every optional top-level key is set away from its default, so a key
    # that the parser dropped or misrouted would show in the comparison
    scm = {"d": 6, "p_e": 0.4, "sigma": 0.2, "rho": 0.5, "gamma": True,
           "m": 1, "p_h": 0, "m_p": False, "n": 300}
    payload = {
        "scm": scm,
        "methods": [
            {"selector": "None", "estimator": "T"},
            {"selector": "HteFitF", "estimator": "S", "metric": "CFCV"},
        ],
        "replicates": 2,
        "grid": {"d": [6, 8], "m": [0, 1]},
        "split_ratio": 0.7,
        "master_seed": 11,
        "alpha": 0.01,
        "max_cond": 2,
        "workers": 2,
        "record_timing": False,
    }
    expected = ExperimentConfig(
        base=scm,
        methods=(MethodSpec("None", "T"), MethodSpec("HteFitF", "S", "CFCV")),
        replicates=2,
        grid={"d": [6, 8], "m": [0, 1]},
        split_ratio=0.7,
        master_seed=11,
        alpha=0.01,
        max_cond=2,
        workers=2,
        record_timing=False,
    )
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(expected, f.name) != f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(expected, f.name) != f.default_factory(), f.name
    assert config_from_json(json.dumps(payload)) == expected
    assert expected.methods[1].method_id == "HteFitF(CFCV)+S"


def test_config_json_absent_keys_take_dataclass_defaults():
    scm = {"d": 6, "p_e": 0.4, "sigma": 0.2, "rho": 0.5, "gamma": True,
           "m": 1, "p_h": 0, "m_p": False, "n": 300}
    payload = {"scm": scm, "methods": [{"selector": "None"}]}
    config = config_from_json(json.dumps(payload))
    assert config == ExperimentConfig(base=scm, methods=(MethodSpec("None"),))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("scm"),
        lambda p: p["methods"].append({"selector": "Bogus"}),
        lambda p: p.update(replicates=0),
        lambda p: p["scm"].update(d=1),
        lambda p: p["methods"].append({"estimator": "T"}),
        lambda p: p.update(record_timing="false"),
        lambda p: p.update(replicates=2.9),
        lambda p: p.update(replicates=True),
        lambda p: p.update(grid={"d": [10, 2]}, replicates=2),  # bad second cell
        lambda p: p["methods"].extend([{"selector": "OracleValid"}, {"selector": "None"}]),
        lambda p: p.update(replicate=50),  # unknown top-level key
        lambda p: p["methods"].append({"selector": "HteFitF", "metirc": "CFCV"}),
        lambda p: p.update(alpha=0.0),
        lambda p: p.update(alpha=1.0),
        lambda p: p.update(max_cond=-1),
        lambda p: p.update(workers=0),
        lambda p: p.update(grid={"d": [6, 8], "m": []}),  # no cells at all
        lambda p: p["scm"].update(seed=3),  # seeds derive from master_seed
        lambda p: p.update(grid={"seed": [1, 2]}),
        lambda p: p["scm"].update(n=300.5),  # SCM values are type-checked
        lambda p: p["scm"].update(d=6.5),
        lambda p: p["scm"].update(gamma="no"),
        lambda p: p["scm"].update(m_p=1),
        lambda p: p.update(grid={"n": [300.5]}),
    ],
)
def test_config_errors_rejected(mutate):
    payload = {
        "scm": {"d": 6, "p_e": 0.4, "sigma": 0.2, "rho": 0.5, "gamma": True,
                "m": 1, "p_h": 0, "m_p": False, "n": 300},
        "methods": [{"selector": "None"}],
        "replicates": 1,
    }
    mutate(payload)
    with pytest.raises(ConfigError):
        config_from_json(json.dumps(payload))


def test_config_built_in_code_checks_every_grid_cell():
    with pytest.raises(ConfigError, match="d must be >= 3"):
        _base_config(grid={"d": [10, 2]})


def test_method_id_formats():
    assert MethodSpec("None", "T").method_id == "None+T"
    assert MethodSpec("HteFS", "X", "CFCV").method_id == "HteFS(CFCV)+X"
    assert MethodSpec("OracleOSet", "DR").method_id == "OracleOSet+DR"
