"""The benchmark's workloads: one SCM family, a fixed SCM panel and a method
list each.

Every workload runs single-process (``workers=1``).  Its panel is the
``panel`` SCMs of the family at master seeds ``0 .. panel-1``, each run as
its own one-replicate ``run_experiment`` call, and a run makes at least
``MIN_PASSES`` passes over it.  The panel is part of the workload, as
ROADMAP aim 1 fixes the master seed: per-replicate cost varies with the SCM
(coefficient of variation about 0.4 on ``greedy_grid``), so runs over
different SCM sets would differ by more than any bound a half-minute run
could hold.  Repeated passes, rather than a wider panel, because the same
cell's wall time varied by up to 60% between passes on a shared 2-core
machine.  ``--seed`` rotates the order in which the panel runs; every seed
runs the same cells, so every cell is checked against the stored reference
rows and per-layer counts repeat exactly.

- ``greedy_grid``: the ROADMAP aim-1 config.  The greedy subset scorer
  (IRLS logistic and ridge refits per candidate subset) dominates it.
- ``discovery_wide``: no greedy scorer at all, so scorer optimisations
  should leave it unchanged, while CI-test and SCM-generator work shows.
- ``matching_tall``: tall, narrow designs with few subset evaluations; the
  O(n^2) nearest-neighbour kernel and the S-learner ridge path run here, so
  a per-split precompute that pays off on the grid must not cost here.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

MIN_PASSES = 3
MIN_CELLS = 40  # cell samples in MIN_PASSES passes, so p75 has ten beyond it
# one BLAS thread per process: with workers=1, processes x threads stays <= nproc,
# and on 2 cores one thread measured faster than two
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_BASE = dict(d=20, p_e=0.3, sigma=0.2, rho=0.1, gamma=True, m=1, p_h=1, m_p=False, n=2000)


@dataclass(frozen=True)
class Workload:
    name: str
    scm: dict
    methods: tuple[tuple[str, str, str], ...]  # (selector, estimator, metric)
    panel: int  # SCMs per pass; one pass takes about 10 s on 2 cores


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "greedy_grid",
            dict(_BASE),
            (
                ("None", "T", "TauRisk"),
                ("HteFitF", "T", "TauRisk"),
                ("HteFitB", "T", "TauRisk"),
                ("HteFitF", "DR", "CFCV"),
                ("HteFitF", "T", "NNPEHE"),
                ("StructureFit", "T", "TauRisk"),
                ("HteFS", "T", "TauRisk"),
                ("OracleValid", "T", "TauRisk"),
            ),
            3,
        ),
        Workload(
            "discovery_wide",
            dict(_BASE, d=60, p_e=0.2, m=2, n=10000),
            (
                ("None", "T", "TauRisk"),
                ("StructureFit", "T", "TauRisk"),
                ("OracleOSet", "T", "TauRisk"),
                ("OracleValid", "T", "TauRisk"),
            ),
            6,
        ),
        Workload(
            "matching_tall",
            dict(_BASE, d=10, n=20000),
            (
                ("HteFitF", "T", "NNPEHE"),
                ("HteFitF", "S", "PluginTau"),
            ),
            7,
        ),
    )
}


def import_hteselect(root: str):
    """Import hteselect from ``root/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "hteselect", "__init__.py")):
        raise SystemExit(f"hteselect sources not found under {src}")
    sys.path.insert(0, src)
    import hteselect

    if not os.path.abspath(hteselect.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported hteselect from {hteselect.__file__}, not {src}")
    return hteselect


def _config(scm: dict, methods, master_seed: int, record_timing: bool):
    from hteselect.harness import ExperimentConfig, MethodSpec

    return ExperimentConfig(
        base=dict(scm),
        methods=tuple(MethodSpec(selector=s, estimator=e, metric=m) for s, e, m in methods),
        replicates=1,
        master_seed=master_seed,
        workers=1,
        record_timing=record_timing,
    )


def panel_config(workload: Workload, member: int, record_timing: bool = True):
    """The ``run_experiment`` config of one panel member."""
    return _config(workload.scm, workload.methods, member, record_timing)


def panel_order(workload: Workload, seed: int) -> list[int]:
    """Panel members in the order a run with ``seed`` executes them."""
    start = seed % workload.panel
    return [(start + j) % workload.panel for j in range(workload.panel)]


def warmup_config(workload: Workload):
    """A small config that runs every method of the workload once."""
    return _config(dict(workload.scm, d=8, n=400), workload.methods, 1, False)
