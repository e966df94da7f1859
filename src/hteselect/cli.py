"""Command-line interface.

Subcommands:
    simulate   sample one SCM and write its dataset CSV plus graph JSON
    select     run one selector on a dataset, print the chosen columns
    benchmark  run a full experiment config and write the results CSV
    report     aggregate a results CSV into rank and inclusion-error tables

Exit codes: 0 on success; 1 for a ``ConfigError`` (a bad option or input
file) or an ``OSError`` on a named path; 2 for any other ``HteSelectError``,
a runtime failure.  A benchmark in which every cell of some replicate failed
still writes its results, then exits 2.  Other exceptions are bugs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness, structure_fit
from .errors import ConfigError, HteSelectError
from .harness import MethodSpec
from .scm_gen import (
    ScmSpec,
    dataset_from_csv,
    dataset_to_csv,
    graph_from_json,
    graph_to_json,
    make_dataset,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hteselect",
        description="Causal feature selection benchmarks for effect estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate one dataset from SCM parameters")
    sim.add_argument("--d", type=int, required=True)
    sim.add_argument("--p-e", type=float, required=True)
    sim.add_argument("--sigma", type=float, default=0.2)
    sim.add_argument("--rho", type=float, default=0.5)
    sim.add_argument("--gamma", action="store_true")
    sim.add_argument("--m", type=int, default=0)
    sim.add_argument("--p-h", type=int, default=0)
    sim.add_argument("--m-p", action="store_true")
    sim.add_argument("--n", type=int, default=2000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-data", type=Path, required=True)
    sim.add_argument("--out-graph", type=Path, required=True)

    sel = sub.add_parser("select", help="run one selector on a dataset CSV")
    sel.add_argument("--data", type=Path, required=True)
    sel.add_argument("--selector", choices=harness.SELECTORS, required=True)
    sel.add_argument("--estimator", default=MethodSpec.estimator)
    sel.add_argument("--metric", default=MethodSpec.metric)
    sel.add_argument("--graph", type=Path, help="graph JSON (needed by Oracle selectors)")
    sel.add_argument("--alpha", type=float, default=structure_fit.CiTestConfig.alpha)
    sel.add_argument("--max-cond", type=int, default=structure_fit.CiTestConfig.max_cond)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--trace-out", type=Path)

    bench = sub.add_parser("benchmark", help="run an experiment config JSON")
    bench.add_argument("--config", type=Path, required=True)
    bench.add_argument("--out", type=Path, required=True)
    bench.add_argument("--traces", type=Path)
    bench.add_argument("--workers", type=int, help="override config worker count")

    rep = sub.add_parser("report", help="aggregate a results CSV")
    rep.add_argument("--results", type=Path, required=True)
    return parser


def _read(path: Path) -> str:
    """The UTF-8 text of the input file ``path``."""
    try:
        return path.read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def _cmd_simulate(args) -> int:
    spec = ScmSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ScmSpec)})
    graph, dataset, attempts = make_dataset(spec)
    args.out_data.write_text(dataset_to_csv(dataset))
    args.out_graph.write_text(graph_to_json(graph, spec))
    print(
        f"wrote {args.out_data} ({dataset.x.shape[0]} rows, "
        f"{dataset.n_features} features) and {args.out_graph} "
        f"(treatment node {graph.t_node}, outcome node {graph.y_node}, "
        f"{attempts} sampling attempt(s))"
    )
    return 0


def _cmd_select(args) -> int:
    method = MethodSpec(args.selector, args.estimator, args.metric)
    graph = None
    if args.graph is not None:
        graph, _ = graph_from_json(_read(args.graph))
    elif method.selector.startswith("Oracle"):
        raise ConfigError(f"{method.selector} requires --graph")
    dataset = dataset_from_csv(_read(args.data))
    cfg = structure_fit.CiTestConfig(alpha=args.alpha, max_cond=args.max_cond)
    selected, trace, _ = harness._run_selector(
        method, dataset.x, dataset.t, dataset.y, graph, cfg, args.seed
    )
    if not selected:
        raise HteSelectError("selector returned no columns")
    print(" ".join(str(c) for c in selected))
    if args.trace_out is not None:
        args.trace_out.write_text(json.dumps(trace, indent=2))
    return 0


def _cmd_benchmark(args) -> int:
    config = harness.config_from_json(_read(args.config))
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    rows, traces = harness.run_experiment(config)
    args.out.write_text(harness.rows_to_csv(rows))
    if args.traces is not None:
        args.traces.write_text(json.dumps(traces, indent=2, sort_keys=True))
    summary = harness.report(rows)
    print(summary.format())
    print(f"wrote {len(rows)} rows to {args.out}")
    dead = sorted({r.scm_id for r in rows} - {r.scm_id for r in rows if not r.failed})
    if dead:
        print(f"runtime failure: every cell failed in {', '.join(dead)}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    rows = harness.rows_from_csv(_read(args.results))
    if not rows:
        raise ConfigError("results CSV contains no rows")
    print(harness.report(rows).format())
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "select": _cmd_select,
    "benchmark": _cmd_benchmark,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HteSelectError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
