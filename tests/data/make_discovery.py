"""Write the discovery record that tests/test_discovery.py compares against.

Usage, from the repository root:
    PYTHONPATH=src python3 tests/data/make_discovery.py

Runs the StructureFit selector alone on each SCM of ``panel()``, through
``harness.run_selector`` at the default ``CiTestConfig``, and stores, per
SCM, the selected columns, the forbidden set and the directed edges of its
trace, and every visited node's PC set and collider parents, in
``tests/data/discovery.json``.
Regenerate only when a change to the package is meant to change discovery
verdicts, and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
from unittest import mock

from hteselect import harness, structure_fit
from hteselect.scm_gen import ScmSpec, make_dataset

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "discovery.json")

_BASE = dict(p_e=0.3, sigma=0.2, rho=0.1, p_h=1, m_p=False, n=2000)


def panel() -> list[ScmSpec]:
    """d in {10, 20, 30} x m in {0, 1, 2} x gamma at n = 2000; the width of
    the discovery_wide benchmark (d = 60) at n = 1000; and near-deterministic
    children (rho = 3e-4), whose conditioning sets reach precision diagonals
    above 1e6, where MAX_PRECISION and the exact per-set test decide."""
    grid = [dict(_BASE, d=d, m=m, gamma=g)
            for d, m, g in itertools.product((10, 20, 30), (0, 1, 2), (True, False))]
    wide = [dict(_BASE, d=60, p_e=0.2, m=2, gamma=g, n=1000) for g in (True, False)]
    collinear = [dict(_BASE, d=20, rho=3e-4, m=m, gamma=g)
                 for m, g in itertools.product((0, 1, 2), (True, False))]
    return [ScmSpec(seed=100 + k, **kw) for k, kw in enumerate(grid + wide + collinear)]


def discover(spec: ScmSpec) -> dict:
    """One SCM's discovery outcome, with the local structure of each node in
    the order the traversal visited it."""
    _, ds, _ = make_dataset(spec)
    visited: list[dict] = []
    pc_simple, discover_colliders = structure_fit.pc_simple, structure_fit.discover_colliders

    def pc(tester, target, candidates, cfg):
        found = pc_simple(tester, target, candidates, cfg)
        visited.append({"node": target, "pc": sorted(found)})
        return found

    def colliders(tester, target, members):
        found = discover_colliders(tester, target, members)
        visited[-1]["colliders"] = sorted(found)
        return found

    with mock.patch.object(structure_fit, "pc_simple", pc), \
            mock.patch.object(structure_fit, "discover_colliders", colliders):
        selected, trace, _ = harness.run_selector(
            harness.MethodSpec("StructureFit"), ds.x, ds.t, ds.y)
    return {
        "spec": dataclasses.asdict(spec),
        "selected": list(selected),
        "forbidden": trace["nodes"],
        "edges": trace["directed_edges"],
        "visited": visited,
    }


def main() -> int:
    records = [discover(spec) for spec in panel()]
    with open(PATH, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{PATH}: {len(records)} SCMs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
