"""Print sha256 digests of every result row and trace of three fixed config sets.

Usage, from the repository root:
    PYTHONPATH=src python3 tests/data/identity_digests.py [corpus] [grid] [panel]

With no argument it prints all three.  Each set gets two digests.  The
first covers, for every config of the set in order, ``rows_to_csv`` of the
rows followed by ``json.dumps(traces, sort_keys=True)``; the second, after
``rows:``, covers the ``rows_to_csv`` texts alone.  All run with
``record_timing=False`` and one BLAS thread.  The sets:

- ``corpus``: the config stored in ``tests/data/corpus.json`` (204 rows);
- ``grid``: ``None``/``HteFitF``/``HteFitB`` x S/T/X/DR x the four metrics
  on the corpus SCM at d=8, n=600, 3 replicates, master seed 5 (108 rows);
- ``panel``: the 16 SCM panel members of the ``perfbench`` workloads, each
  its own one-replicate run (62 rows).

A change meant to keep every row and trace bit for bit prints the same
digests as its parent commit.  A change meant to move only traces prints
the same ``rows:`` digests.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "perfbench"))
import workloads  # noqa: E402  (imports no numpy)

os.environ.update(workloads.BLAS_ENV)  # before numpy loads its BLAS

from hteselect import estimators, fit_metrics, harness  # noqa: E402


def corpus_configs() -> list:
    with open(os.path.join(HERE, "corpus.json")) as fh:
        return [harness.config_from_json(json.dumps(json.load(fh)["config"]))]


def grid_configs() -> list:
    methods = [{"selector": "None", "estimator": e} for e in estimators.ESTIMATOR_KINDS]
    methods += [{"selector": s, "estimator": e, "metric": m} for s in ("HteFitF", "HteFitB")
                for e in estimators.ESTIMATOR_KINDS for m in fit_metrics.METRIC_KINDS]
    config = {"scm": {"d": 8, "p_e": 0.3, "sigma": 0.2, "rho": 0.1, "gamma": True,
                      "m": 1, "p_h": 1, "m_p": False, "n": 600},
              "methods": methods, "replicates": 3, "master_seed": 5, "record_timing": False}
    return [harness.config_from_json(json.dumps(config))]


def panel_configs() -> list:
    return [workloads.panel_config(w, member, record_timing=False)
            for w in workloads.WORKLOADS.values() for member in range(w.panel)]


SETS = {"corpus": corpus_configs, "grid": grid_configs, "panel": panel_configs}


def digest(configs) -> tuple[str, str, int]:
    """The sha256 of every config's rows and traces, that of its rows
    alone, and the row count."""
    sha, rows_sha, count = hashlib.sha256(), hashlib.sha256(), 0
    for config in configs:
        rows, traces = harness.run_experiment(config)
        csv_text = harness.rows_to_csv(rows).encode()
        sha.update(csv_text)
        sha.update(json.dumps(traces, sort_keys=True).encode())
        rows_sha.update(csv_text)
        count += len(rows)
    return sha.hexdigest(), rows_sha.hexdigest(), count


def main(argv: list[str]) -> int:
    names = argv or list(SETS)
    unknown = [name for name in names if name not in SETS]
    if unknown:
        print(f"unknown set(s) {unknown}; choose from {list(SETS)}", file=sys.stderr)
        return 1
    for name in names:
        sha, rows_sha, count = digest(SETS[name]())
        print(f"{name} {sha} rows:{rows_sha} ({count} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
