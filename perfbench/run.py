"""Pipeline benchmark for hteselect: end-to-end metrics or per-layer traces.

Usage, from the repository root:
    python3 perfbench/run.py --workload greedy_grid --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  The package is imported from
``src/`` of the current directory; the run fails if it is not there.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes of the time
  from process start until numpy, scipy and hteselect are imported and one
  warm-up call has run;
- ``replicates_per_s``: replicates completed per second of
  ``run_experiment`` wall time;
- ``cell_s_p50``, ``cell_s_p75``: Harrell-Davis quantiles of the per-cell
  wall times in the result rows, pooled over passes (sample count in the
  info line);
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``ok_cell_frac``: cells that passed the correctness checks over cells
  attempted (the complement of the failed-cell fraction, which would read
  0 on every healthy run).

``--trace 1`` prints the per-layer metrics of ``tracing.py`` plus the
tracing overhead.  The line before the result holds the environment record
and sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3  # the measuring worker is one of them
TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _launch(argv: list[str], env: dict, deadline: float):
    """Start a worker; returns (process, seconds until it printed READY)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise WorkerError(f"worker did not become ready (exit {proc.returncode})")
    return proc, watchdog, setup_s


def _finish(proc, watchdog) -> str | None:
    """Wait for a worker; returns its RESULT payload, if any."""
    payload = None
    for line in proc.stdout:
        if line.startswith("RESULT "):
            payload = line[len("RESULT "):]
    proc.wait()
    watchdog.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hteselect", "__init__.py")):
        print(f"hteselect sources not found under {src}", file=sys.stderr)
        return 2
    # byte-compile up front so no timed set-up pays for it
    if not (compileall.compile_dir(src, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("byte-compilation failed", file=sys.stderr)
        return 2

    env = dict(os.environ, **workloads.BLAS_ENV)
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, watchdog, setup_s = _launch(common + ["--setup-only"], env, deadline)
                _finish(proc, watchdog)
                setup.append(setup_s)
        proc, watchdog, setup_s = _launch(common, env, deadline)
        setup.append(setup_s)
        payload = _finish(proc, watchdog)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if payload is None:
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1

    result = json.loads(payload)
    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_samples_s"] = setup
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
