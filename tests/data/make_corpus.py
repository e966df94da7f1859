"""Write the method corpus that tests/test_corpus.py compares against.

Usage, from the repository root:
    PYTHONPATH=src python3 tests/data/make_corpus.py

Runs every method id (each selector with each estimator, and each metric
where the selector takes one) on a small SCM grid with
``record_timing=False`` and stores the config and the pinned fields of every
row in ``tests/data/corpus.json``.  Regenerate only when a change to the
package is meant to change selection results, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

from hteselect import estimators, fit_metrics, harness

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")

# the fields of a result row the corpus pins
PINNED = ("scm_id", "method", "n_selected", "selected", "flags", "mse", "tau_risk")


def corpus_config() -> dict:
    """The experiment config JSON: all method ids on one small SCM grid."""
    methods = []
    for selector in harness.SELECTORS:
        for estimator in estimators.ESTIMATOR_KINDS:
            if selector not in harness._METRIC_SELECTORS:
                methods.append({"selector": selector, "estimator": estimator})
                continue
            for metric in fit_metrics.METRIC_KINDS:
                methods.append({"selector": selector, "estimator": estimator, "metric": metric})
    return {
        "scm": {"d": 8, "p_e": 0.3, "sigma": 0.2, "rho": 0.1, "gamma": True,
                "m": 1, "p_h": 1, "m_p": False, "n": 600},
        "grid": {"d": [6, 10], "m": [0, 1, 2]},
        "methods": methods,
        "replicates": 3,
        "master_seed": 11,
        "record_timing": False,
    }


def record(row: harness.BenchmarkRow) -> dict:
    return {name: getattr(row, name) for name in PINNED}


def main() -> int:
    config = corpus_config()
    rows, _ = harness.run_experiment(harness.config_from_json(json.dumps(config)))
    lines = ",\n".join("  " + json.dumps(record(r)) for r in rows)
    with open(PATH, "w") as fh:
        fh.write(f'{{"config": {json.dumps(config)},\n "rows": [\n{lines}\n]}}\n')
    print(f"{PATH}: {len(rows)} rows, {sum(r.failed for r in rows)} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
