"""Write the reference rows the benchmark checks every cell against.

Usage, from the repository root:
    python3 perfbench/make_reference.py [workload ...]

For each workload, runs every member of its SCM panel with
``record_timing=False`` and stores the pinned fields of every row in
``perfbench/reference/<workload>.json``.  Regenerate only when a change to
the package is meant to change selection results.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import workloads

def main(names: list[str]) -> int:
    os.environ.update(workloads.BLAS_ENV)
    workloads.import_hteselect(os.getcwd())
    from hteselect import harness

    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        members = []
        for member in range(workload.panel):
            cfg = workloads.panel_config(workload, member, record_timing=False)
            rows, _ = harness.run_experiment(cfg)
            members.append([checks.record(r) for r in rows])
        path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(dumps(name, members))
        print(f"{path}: {len(members)} panel members")
    return 0


def dumps(name: str, members: list[list[dict]]) -> str:
    """Reference file text: one row per line, so diffs show which cells moved."""
    blocks = ",\n".join(
        "  [\n" + ",\n".join("   " + json.dumps(row) for row in rows) + "\n  ]"
        for rows in members
    )
    return f'{{"workload": {json.dumps(name)}, "panel": [\n{blocks}\n]}}\n'


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
