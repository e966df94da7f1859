import sys

import pytest

import tracing
import workloads

from hteselect import harness, hte_fit, structure_fit  # noqa: F401  (loads every module)
from hteselect.harness import ExperimentConfig, MethodSpec


def test_self_time_on_hand_built_tree():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["b", 6.0, 7.0, 2],
        ["d", 11.0, 16.0, -1],
        ["d", 12.0, 14.0, 4],  # re-entry: inclusive time counts the outer span only
    ]
    got = tracing.summarize(spans)
    assert got["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert got["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert got["c"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert got["d"] == {"calls": 2, "s": 5.0, "self_s": 5.0}
    # self times partition the root spans exactly
    assert sum(v["self_s"] for v in got.values()) == 10.0 + 5.0


# bindings a caller holds that patching the defining module alone would miss
NAMED_IMPORTS = [
    ("hteselect.estimators", "fit_ridge"),
    ("hteselect.estimators", "fit_logistic"),
    ("hteselect.fit_metrics", "nn_opposite_arm"),
    ("hteselect.harness", "make_dataset"),
    ("hteselect", "fit_ridge"),
    ("hteselect", "run_experiment"),
]


def _all_bindings():
    found = [(sys.modules[m], a) for m, a in NAMED_IMPORTS]
    for target in tracing.TARGETS:
        found.extend(tracing.bindings(target))
    return found


def test_every_binding_wrapped_then_restored():
    bindings = _all_bindings()
    originals = [vars(owner)[name] for owner, name in bindings]
    ridge = next(t for t in tracing.TARGETS if t.span == "supervised.fit_ridge")
    assert len(tracing.bindings(ridge)) >= 3  # supervised, estimators, package
    with tracing.traced(tracing.Tracer()):
        for (owner, name), original in zip(bindings, originals):
            current = vars(owner)[name]
            assert current is not original, f"{owner.__name__}.{name} not wrapped"
            assert current.__wrapped__ is original
    for (owner, name), original in zip(bindings, originals):
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"


def test_bindings_restored_after_an_error():
    original = hte_fit.SubsetScorer.__call__
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert hte_fit.SubsetScorer.__call__ is original


def _small_config():
    methods = (
        MethodSpec("HteFitF", "T", "TauRisk"),
        MethodSpec("HteFitF", "S", "NNPEHE"),
        MethodSpec("StructureFit", "T"),
    )
    return ExperimentConfig(base=dict(workloads.WORKLOADS["greedy_grid"].scm, d=6, n=300),
                            methods=methods, master_seed=3, record_timing=False)


def test_traced_run_records_every_layer_and_keeps_results():
    plain, _ = harness.run_experiment(_small_config())
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced_rows, _ = harness.run_experiment(_small_config())
    assert harness.rows_to_csv(traced_rows) == harness.rows_to_csv(plain)

    layers = tracing.summarize(tracer.spans)
    assert set(layers) == set(tracing.SPANS)
    assert layers["harness.run_experiment"]["calls"] == 1
    assert layers["hte_fit.yardstick"]["calls"] == 2
    for name in tracing.COUNTS:
        if name not in ("hte_fit.score.inf", "supervised.fit_logistic.not_converged"):
            assert tracer.counts[name] > 0, name
    assert tracer.counts["structure_fit.ci_test.unique"] <= layers["structure_fit.ci_test"]["calls"]
    root = [s for s in tracer.spans if s[3] < 0]
    assert len(root) == 1
    total_self = sum(v["self_s"] for v in layers.values())
    assert total_self == pytest.approx(root[0][2] - root[0][1], rel=1e-9)

