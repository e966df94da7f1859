"""What the benchmark reads from the package still exists and works.

``perfbench/checks.py`` and ``perfbench/workloads.py`` read result-row
fields, config fields and package names that no package code needs, so
deleting one would only fail the benchmark run.  This loads both by file
path, as ``test_tracing_targets.py`` loads the tracer, and runs them on one
small experiment.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import hteselect._kernels
from hteselect.harness import ExperimentConfig, MethodSpec, run_experiment

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: its dataclasses look it up
    return module


checks = _load("checks")
workloads = _load("workloads")


def test_checks_read_every_row_of_a_small_run():
    methods = (
        MethodSpec("HteFitF", "T", "TauRisk"),
        MethodSpec("HteFitF", "S", "NNPEHE"),
        MethodSpec("StructureFit", "T"),
    )
    config = ExperimentConfig(base=dict(workloads.WORKLOADS["greedy_grid"].scm, d=6, n=300),
                              methods=methods, master_seed=3, record_timing=False)
    rows, _ = run_experiment(config)
    records = [checks.record(row) for row in rows]
    assert [r["method"] for r in records] == [m.method_id for m in methods]
    assert not any(checks.differs(row, rec) for row, rec in zip(rows, records))
    assert checks.failed_rows(rows, None, len(methods)) == [False] * len(methods)
    assert checks.failed_rows(rows, records, len(methods)) == [False] * len(methods)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_construct(name):
    workload = workloads.WORKLOADS[name]
    for config in (workloads.panel_config(workload, 0), workloads.warmup_config(workload)):
        assert isinstance(config, ExperimentConfig)
        assert len(config.methods) == len(workload.methods)


def test_environment_record_reads_resolve():
    assert isinstance(hteselect._kernels.HAS_NUMBA, bool)
