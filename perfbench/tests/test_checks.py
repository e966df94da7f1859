import dataclasses
import os
import subprocess
import sys

import pytest

import checks
import workloads

from hteselect import harness
from hteselect.harness import ExperimentConfig, MethodSpec

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def rows():
    cfg = ExperimentConfig(
        base=dict(workloads.WORKLOADS["greedy_grid"].scm, d=6, n=300),
        methods=(MethodSpec("None"), MethodSpec("HteFitF"), MethodSpec("OracleValid")),
        master_seed=5,
        record_timing=False,
    )
    return harness.run_experiment(cfg)[0]


def test_reference_passes_untouched_rows(rows):
    reference = [checks.record(r) for r in rows]
    assert checks.failed_rows(rows, reference, len(rows)) == [False] * len(rows)


@pytest.mark.parametrize(
    "change",
    [
        {"mse": "scale"},
        {"tau_risk": "scale"},
        {"selected": (0,), "n_selected": 1},
        {"n_selected": 99},
        {"flags": ("ie_undefined",)},
    ],
)
def test_reference_flags_one_perturbed_row(rows, change):
    reference = [checks.record(r) for r in rows]
    row = rows[1]
    fields = {k: (getattr(row, k) * (1 + 1e-8) if v == "scale" else v) for k, v in change.items()}
    perturbed = list(rows)
    perturbed[1] = dataclasses.replace(row, **fields)
    assert checks.failed_rows(perturbed, reference, len(rows)) == [False, True, False]


def test_reference_tolerates_last_digit_noise(rows):
    reference = [checks.record(r) for r in rows]
    perturbed = [dataclasses.replace(r, mse=r.mse * (1 + 1e-12)) for r in rows]
    assert not any(checks.failed_rows(perturbed, reference, len(rows)))


def test_invariants(rows):
    assert not any(checks.violates_invariants(rows))
    failed = list(rows)
    failed[0] = dataclasses.replace(rows[0], flags=("failed:DegenerateArms",))
    assert checks.violates_invariants(failed) == [True, False, False]
    nan = list(rows)
    nan[2] = dataclasses.replace(rows[2], mse=float("nan"))
    assert checks.violates_invariants(nan) == [False, False, True]
    ranks = list(rows)
    ranks[0] = dataclasses.replace(rows[0], rank=rows[0].rank + 1)
    assert checks.violates_invariants(ranks) == [True, True, True]


def test_missing_rows_count_every_cell_failed(rows):
    assert checks.failed_rows(rows[:2], None, 3) == [True, True, True]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stored_reference_covers_the_panel_and_matches_its_first_member(name):
    workload = workloads.WORKLOADS[name]
    reference = checks.load_reference(name)
    assert len(reference) == workload.panel
    assert workload.panel * len(workload.methods) * workloads.MIN_PASSES >= workloads.MIN_CELLS
    got = harness.run_experiment(workloads.panel_config(workload, 0, record_timing=False))[0]
    assert checks.failed_rows(got, reference[0], len(workload.methods)) == [False] * len(got)


def test_run_fails_without_package_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "greedy_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
