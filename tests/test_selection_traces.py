"""Greedy selection traces pinned against stored records.

The subset scorer fits candidates from per-split sufficient statistics and
warm-starts its propensity fits; it must select exactly what a scorer that
refits every candidate from raw rows selects.  ``data/selection_traces.json``
holds, for the first replicate of each grid cell of the desk-scale
acceptance benchmark (master seed 20240), each greedy method's steps as
(column, accepted) pairs and its final set, recorded with the row-refit
scorer.  Regenerate it only when selection is meant to change:

    PYTHONPATH=src python tests/test_selection_traces.py
"""

import json
import os

from hteselect.harness import ExperimentConfig, MethodSpec, run_experiment

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "selection_traces.json")

METHODS = (
    MethodSpec("HteFitF", "T", "TauRisk"),
    MethodSpec("HteFitB", "T", "TauRisk"),
    MethodSpec("HteFitF", "DR", "CFCV"),
    MethodSpec("HteFitF", "T", "NNPEHE"),
    MethodSpec("HteFitF", "S", "PluginTau"),
    MethodSpec("HteFitF", "X", "TauRisk"),
)


def _summaries() -> dict:
    config = ExperimentConfig(
        base=dict(d=10, p_e=0.3, sigma=0.2, rho=0.1, gamma=True, m=1, p_h=1,
                  m_p=False, n=2000),
        grid={"d": [10, 20], "m": [1, 2]},
        methods=METHODS,
        replicates=4,
        master_seed=20_240,
        record_timing=False,
    )
    _, traces = run_experiment(config)
    return {
        key: {
            "final_set": trace["final_set"],
            "steps": [[step["column"], step["accepted"]] for step in trace["steps"]],
        }
        for key, trace in sorted(traces.items())
    }


def test_selection_traces_match_pinned_records():
    with open(DATA) as fh:
        pinned = json.load(fh)
    got = _summaries()
    assert sorted(got) == sorted(pinned)
    for key in pinned:
        assert got[key] == pinned[key], key


def dumps(summaries: dict) -> str:
    """One record per line, so diffs show which method's trace moved."""
    lines = [f"  {json.dumps(key)}: {json.dumps(rec)}" for key, rec in summaries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        fh.write(dumps(_summaries()))
    print(f"wrote {DATA}")
