import json
import os

import pytest

import tracing
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_harrell_davis_quantile():
    assert worker.hd_quantile(list(range(1, 42)), 0.5) == pytest.approx(21.0)
    # two clusters: the estimate sits between them instead of on either edge
    assert worker.hd_quantile([1.0] * 20 + [10.0] * 20, 0.5) == pytest.approx(5.5)


class _Loop:
    wall, replicates, attempted, failed = 2.0, 2, 8, 0
    cell_s = [0.1, 0.2, 0.3, 0.4]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)

    untraced, _ = worker.untraced_metrics(_Loop())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: u for k, (_, u) in untraced.items()} | {"setup_s": "s"} == e2e

    traced, _ = worker.traced_metrics(_Loop(), tracing.Tracer(), _Loop())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: u for k, (_, u) in traced.items()} == per_layer
