"""One benchmark process: set up hteselect from the checkout, then measure.

Started by ``run.py`` from the checkout root.  Prints ``READY`` once the
imports and one warm-up call are done (the launcher times process start to
that line as set-up), then, unless ``--setup-only``, measures the workload
and prints ``RESULT <json>``.

Untraced (``--trace 0``): whole passes over the workload's SCM panel,
``MIN_PASSES`` and then more while they fit in ``--seconds``; the end-to-end
metrics come from these rows.  Traced (``--trace 1``): one pass with every layer wrapped
in spans, then one untraced pass that gives the tracing overhead and checks
that tracing changed no result.  Per-layer values are per traced replicate.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
from scipy.stats import beta

import checks
import tracing
import workloads


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(hteselect) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in workloads.BLAS_ENV},
        "has_numba": bool(hteselect._kernels.HAS_NUMBA),
    }


class Loop:
    """Runs panel members of one workload and keeps the checked results."""

    def __init__(self, harness, workload, reference):
        self.harness = harness
        self.workload = workload
        self.reference = reference
        self.wall = 0.0
        self.replicates = 0
        self.attempted = 0
        self.failed = 0
        self.cell_s: list[float] = []
        self.rows: dict[int, list] = {}

    def run(self, member: int, expected: list[dict] | None = None) -> None:
        """One panel member; rows are checked against ``expected`` or the reference."""
        cfg = workloads.panel_config(self.workload, member)
        n_cells = len(self.workload.methods)
        started = time.perf_counter()
        try:
            rows, _ = self.harness.run_experiment(cfg)
        except Exception:  # every cell of a run that raises counts as failed
            self.wall += time.perf_counter() - started
            traceback.print_exc(file=sys.stderr)
            self.attempted += n_cells
            self.failed += n_cells
            return
        self.wall += time.perf_counter() - started
        self.replicates += 1
        bad = checks.failed_rows(rows, self.reference[member] if expected is None else expected,
                                 n_cells)
        self.attempted += len(bad)
        self.failed += sum(bad)
        self.cell_s.extend(r.wall_millis / 1000.0 for r in rows)
        self.rows[member] = rows

    def passes(self, order: list[int], seconds: float) -> int:
        """Whole passes over the panel: MIN_PASSES, then more while they fit in ``seconds``."""
        start = time.perf_counter()
        count = 0
        while True:
            pass_start = time.perf_counter()
            for member in order:
                self.run(member)
            count += 1
            now = time.perf_counter()
            if count >= workloads.MIN_PASSES and now - start + (now - pass_start) > seconds:
                return count


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A beta-weighted mean of all order statistics: cells come in clusters by
    method, and a single-order-statistic estimate jumps across the gap
    between two clusters when one cell's time moves.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1)))
    return float(weights @ x)


def untraced_metrics(loop: Loop) -> tuple[dict, dict]:
    nan = float("nan")
    metrics = {
        "replicates_per_s": (loop.replicates / loop.wall if loop.replicates else nan, "1/s"),
        "cell_s_p50": (hd_quantile(loop.cell_s, 0.5) if loop.cell_s else nan, "s"),
        "cell_s_p75": (hd_quantile(loop.cell_s, 0.75) if loop.cell_s else nan, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_cell_frac": (1.0 - loop.failed / loop.attempted, "frac"),
    }
    samples = {"replicates": loop.replicates, "cells": len(loop.cell_s), "wall_s": loop.wall}
    return metrics, samples


def traced_metrics(traced: Loop, tracer: tracing.Tracer, untraced: Loop) -> tuple[dict, dict]:
    reps = max(traced.replicates, 1)
    layers = tracing.summarize(tracer.spans)
    metrics = {}
    for span in tracing.SPANS:
        agg = layers.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{span}.calls"] = (agg["calls"] / reps, "count/rep")
        metrics[f"{span}.s"] = (agg["s"] / reps, "s/rep")
        metrics[f"{span}.self_s"] = (agg["self_s"] / reps, "s/rep")
    for name in tracing.COUNTS:
        metrics[name] = (tracer.counts[name] / reps, "count/rep")
    self_total = sum(agg["self_s"] for agg in layers.values())
    metrics["trace.wall_s"] = (traced.wall / reps, "s/rep")
    metrics["trace.unattributed_s"] = ((traced.wall - self_total) / reps, "s/rep")
    metrics["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "frac")
    samples = {
        "replicates": traced.replicates,
        "traced_replicates_per_s": traced.replicates / traced.wall,
        "untraced_replicates_per_s": untraced.replicates / untraced.wall,
        "spans": len(tracer.spans),
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hteselect = workloads.import_hteselect(os.getcwd())
    from hteselect import harness

    workload = workloads.WORKLOADS[args.workload]
    harness.run_experiment(workloads.warmup_config(workload))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = checks.load_reference(workload.name)
    order = workloads.panel_order(workload, args.seed)
    loop = Loop(harness, workload, reference)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            for member in order:
                loop.run(member)
        # one untraced pass: the overhead base, and tracing must not change a row
        replay = Loop(harness, workload, reference)
        for member in order:
            traced_rows = loop.rows.get(member)
            replay.run(member, [checks.record(r) for r in traced_rows] if traced_rows else None)
        metrics, samples = traced_metrics(loop, tracer, replay)
        attempted = loop.attempted + replay.attempted
        failed = loop.failed + replay.failed
    else:
        samples = {"passes": loop.passes(order, args.seconds)}
        metrics, more = untraced_metrics(loop)
        samples.update(more)
        attempted, failed = loop.attempted, loop.failed

    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "workload": workload.name,
            "seed": args.seed,
            "samples": samples,
            "env": environment(hteselect),
        },
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
