"""End-to-end pipeline and benchmark harness.

Combines the two selection stages (metric-guided greedy selection followed
by local-structure pruning of discovered treatment descendants), runs them
against vanilla and oracle baselines over replicated synthetic SCMs, and
aggregates per-SCM mean-squared-error ranks and inclusion errors into a
results table.

Everything is deterministic given the master seed: replicate seeds come
from a splittable seed tree, so replicates can run in worker processes and
still merge into identical output.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import os
import time
import typing
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimators, fit_metrics, hte_fit, structure_fit, supervised
from .errors import ConfigError, HteSelectError
from .scm_gen import ScmSpec, csv_records, json_object, make_dataset, spec_from_json, typed

logger = logging.getLogger(__name__)

SELECTORS = (
    "None",
    "HteFitF",
    "HteFitB",
    "StructureFit",
    "HteFS",
    "OracleParents",
    "OracleValid",
    "OracleOSet",
)
_METRIC_SELECTORS = {"HteFitF", "HteFitB", "HteFS"}


@dataclass(frozen=True)
class MethodSpec:
    selector: str
    estimator: str = "T"
    metric: str = "TauRisk"

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ConfigError(f"unknown selector {self.selector!r}")
        if self.estimator not in estimators.ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.metric not in fit_metrics.METRIC_KINDS:
            raise ConfigError(f"unknown metric {self.metric!r}")

    @property
    def metric_cell(self) -> str:
        """A results row's metric: blank unless the selector is metric-guided."""
        return self.metric if self.selector in _METRIC_SELECTORS else ""

    @property
    def method_id(self) -> str:
        if self.metric_cell:
            return f"{self.selector}({self.metric})+{self.estimator}"
        return f"{self.selector}+{self.estimator}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark definition: an SCM family, replicates, and methods."""

    base: dict
    methods: tuple[MethodSpec, ...]
    replicates: int = 1
    grid: dict = field(default_factory=dict)
    split_ratio: float = 0.8
    master_seed: int = 0
    alpha: float = structure_fit.CiTestConfig.alpha
    max_cond: int = structure_fit.CiTestConfig.max_cond
    workers: int = 1
    record_timing: bool = True

    def __post_init__(self):
        for name, low in (("replicates", 1), ("workers", 1), ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not self.methods:
            raise ConfigError("methods must list at least one method")
        ids = [m.method_id for m in self.methods]
        if len(set(ids)) < len(ids):
            raise ConfigError(f"duplicate methods in {ids}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must lie in (0, 1)")
        self.ci_config()
        if "seed" in self.base or "seed" in self.grid:
            raise ConfigError("seed is derived from master_seed; set master_seed instead")
        empty = sorted(k for k, values in self.grid.items() if not values)
        if empty:
            raise ConfigError(f"grid keys {empty} have no values")
        # fail fast on unusable SCM parameters in any grid cell
        for cell in range(math.prod(map(len, self.grid.values()))):
            self.spec_for_replicate(cell)

    def ci_config(self) -> structure_fit.CiTestConfig:
        """The CI-test parameters every replicate's structure discovery uses."""
        return structure_fit.CiTestConfig(alpha=self.alpha, max_cond=self.max_cond)

    def spec_for_replicate(self, replicate: int) -> ScmSpec:
        """The base spec with the grid cell of ``replicate`` applied: cell
        ``replicate`` mod the cell count of the grid's Cartesian product,
        whose mixed-radix digits over the sorted grid keys (the last key
        varying fastest) pick each key's value.  Only that cell is built."""
        cell = dict(self.base)
        index = replicate % math.prod(map(len, self.grid.values()))
        for key in sorted(self.grid, reverse=True):
            index, digit = divmod(index, len(self.grid[key]))
            cell[key] = self.grid[key][digit]
        cell["seed"] = _derived_seed(self.master_seed, replicate, 0)
        return spec_from_json("config 'scm'", cell)


def _derived_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class BenchmarkRow:
    """One evaluated (SCM, method) cell."""

    scm_id: str
    method: str
    selector: str
    estimator: str
    metric: str
    n_selected: int
    selected: tuple[int, ...]
    mse: float
    tau_risk: float
    inclusion_error: float
    rank: float = 0.0
    wall_millis: int = 0
    flags: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return any(f.startswith("failed") for f in self.flags)

    @property
    def ie_defined(self) -> bool:
        return "ie_undefined" not in self.flags and not self.failed


# ---------------------------------------------------------------------------
# selector dispatch
# ---------------------------------------------------------------------------


def run_selector(
    method: MethodSpec,
    x: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    graph=None,
    cfg: structure_fit.CiTestConfig = structure_fit.CiTestConfig(),
    seed: int = 0,
) -> tuple[tuple[int, ...], dict, list[str]]:
    """One selector's columns, trace and flags on a training partition.

    HteFS is HTE-Fit's forward selection followed by Structure-Fit on its
    output; when pruning would empty that set, the greedy-stage output is
    kept and flagged ``fallback_stage_one``, since estimation needs at least
    one column.  Only Oracle selectors read ``graph`` (a ConfigError if it is
    None), mapping its nodes to columns by ``graph.feature_nodes()``; a
    graph whose feature count differs from x's is a ConfigError for every
    selector.  An empty selection is returned, not raised, so a caller can
    record it.
    """
    k = np.shape(x)[1]
    if graph is not None and graph.d - 2 != k:
        raise ConfigError(f"the graph has {graph.d - 2} feature nodes, but the data has "
                          f"{k} feature columns")
    candidates = tuple(range(k))
    if method.selector == "None":
        return candidates, {}, []
    if method.selector.startswith("Oracle"):
        if graph is None:
            raise ConfigError(f"{method.selector} needs the true causal graph")
        result = structure_fit.oracle_adjustment(graph, method.selector.removeprefix("Oracle"))
        col_of_node = {node: j for j, node in enumerate(graph.feature_nodes())}
        cols = tuple(sorted(col_of_node[n] for n in result.nodes))
        flags = ["empty_causal_path"] if result.empty_causal_path else []
        return cols, {"nodes": sorted(result.nodes)}, flags
    if method.selector != "StructureFit":
        stage_one = hte_fit.select_features(
            x, t, y,
            metric=method.metric, estimator=method.estimator,
            direction="backward" if method.selector == "HteFitB" else "forward", seed=seed,
        )
        if method.selector != "HteFS":
            return stage_one.final_set, stage_one.to_dict(), []
        candidates = stage_one.final_set
    stacked = np.column_stack([np.asarray(x, float), np.asarray(t, float), np.asarray(y, float)])
    result = structure_fit.structure_fit(
        structure_fit.FisherZTester(stacked, cfg),
        structure_fit.DataOrienter(stacked, binary_col=k),
        k, k + 1, candidates, cfg,
    )
    if method.selector == "StructureFit":
        flags = [] if result.selected else ["empty_selection"]
        return result.selected, result.to_dict(), flags
    flags = [] if result.selected else ["fallback_stage_one"]
    selected = tuple(result.selected or candidates)
    trace = {
        "stage_one": stage_one.to_dict(),
        "structure": result.to_dict(),
        "forbidden": sorted(result.forbidden),
        "selected": list(selected),
        "flags": flags,
    }
    return selected, trace, list(flags)


# ---------------------------------------------------------------------------
# replicate execution
# ---------------------------------------------------------------------------


def _row(
    scm_id: str,
    method: MethodSpec,
    flags,
    selected: tuple[int, ...] = (),
    mse: float = math.nan,
    tau_risk: float = math.nan,
    inclusion_error: float = 0.0,
) -> BenchmarkRow:
    """The result row of one cell; the defaults are those of a failed cell."""
    return BenchmarkRow(
        scm_id=scm_id,
        method=method.method_id,
        selector=method.selector,
        estimator=method.estimator,
        metric=method.metric_cell,
        n_selected=len(selected),
        selected=tuple(selected),
        mse=mse,
        tau_risk=tau_risk,
        inclusion_error=inclusion_error,
        flags=tuple(flags),
    )


def _failed(exc: Exception) -> str:
    return f"failed:{type(exc).__name__}"


def _run_replicate(config: ExperimentConfig, replicate: int) -> tuple[list[BenchmarkRow], dict]:
    """Every method cell of one replicate; never raises.

    A package error inside one method's cell fails that cell only; an error
    of the replicate's shared T ``prepare`` is raised again by every T
    cell, so fails each of them.  A package error while drawing the
    replicate's dataset or fitting its shared held-out yardstick, or an
    error of any other type anywhere, fails every cell of the replicate,
    each with its own ``failed:<Error>`` row: one replicate cannot lose the
    rows of the others (with ``workers > 1`` an exception would abort the
    pool's map).  Errors of other types are logged with their traceback.
    """
    scm_id = f"scm{replicate:04d}"
    try:
        return _replicate_cells(config, replicate, scm_id)
    except Exception as exc:
        if not isinstance(exc, HteSelectError):
            logger.exception("replicate %s failed", scm_id)
        return [_row(scm_id, method, [_failed(exc)]) for method in config.methods], {}


def _yardstick(x_tr, t_tr, y_tr, x_te, y_te) -> tuple[np.ndarray, np.ndarray]:
    """The held-out outcome residual and propensity behind the reported
    ``tau_risk``: a ridge and a logistic fit on one standardized design of
    the training rows, both predicted on the test rows standardized once."""
    design = supervised.Standardized.of(x_tr)
    z_te = supervised.standardize(x_te, design.mu, design.scale)
    y_resid = y_te - supervised.predict_standardized(supervised.fit_ridge(design, y_tr), z_te)
    p_hat = supervised.predict_standardized(supervised.fit_logistic(design, t_tr), z_te)
    return y_resid, p_hat


def _replicate_cells(
    config: ExperimentConfig, replicate: int, scm_id: str
) -> tuple[list[BenchmarkRow], dict]:
    """The rows and traces of ``_run_replicate``, raising what fails all cells.

    Each statistic of the training partition is computed once: the
    yardstick's standardized design serves both of its fits, and every
    final T model is a sub-block solve (``fit_columns``) of one all-column
    T ``prepare``, made and timed by the first T cell.  T is shared in every
    config: sub-block moments differ from a subset's own in the last bits,
    so sharing a kind only when two methods use it would make a row depend
    on which other methods ran.  S, X and DR fit on their own columns: S's
    all-column design costs more than one own-column fit, and X and DR
    warm-start each propensity fit from their block's earlier fits.
    """
    graph, dataset, _ = make_dataset(config.spec_for_replicate(replicate))
    n = dataset.x.shape[0]
    split_rng = np.random.default_rng(_derived_seed(config.master_seed, replicate, 1))
    order = split_rng.permutation(n)
    cut = int(round(config.split_ratio * n))
    train, test = order[:cut], order[cut:]
    x_tr, t_tr, y_tr = dataset.x[train], dataset.t[train], dataset.y[train]
    x_te, t_te, y_te = dataset.x[test], dataset.t[test], dataset.y[test]
    tau_te = dataset.tau[test]
    y_resid, p_hat = _yardstick(x_tr, t_tr, y_tr, x_te, y_te)
    cfg = config.ci_config()

    t_prepared = None
    rows: list[BenchmarkRow] = []
    traces: dict = {}
    for method in config.methods:
        # stable per-method stream: independent of the method list ordering
        method_key = zlib.crc32(method.method_id.encode())
        seed = _derived_seed(config.master_seed, replicate, 2, method_key)
        started = time.perf_counter_ns()
        flags: list[str] = []
        try:
            selected, trace, flags = run_selector(method, x_tr, t_tr, y_tr, graph, cfg, seed)
            if not selected:
                raise HteSelectError("selector returned no columns")
            cols = list(selected)
            if method.estimator == "T":
                t_prepared = t_prepared or estimators.prepare("T", x_tr, t_tr, y_tr)
                est = estimators.fit_columns(t_prepared, cols)
            else:
                est = estimators.fit_estimator(method.estimator, x_tr[:, cols], t_tr, y_tr)
            tau_hat = est.predict(x_te[:, cols])
            mse = fit_metrics.effect_mse(tau_hat, tau_te)
            risk = fit_metrics.residual_risk(tau_hat, y_resid, t_te, p_hat)
            ie = fit_metrics.inclusion_error(selected, dataset.post_treatment_mask)
            if not ie.defined:
                flags.append("ie_undefined")
            row = _row(scm_id, method, flags, selected, mse, risk, ie.value)
            traces[f"{scm_id}/{method.method_id}"] = trace
        except HteSelectError as exc:
            row = _row(scm_id, method, [*flags, _failed(exc)])
        elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
        row.wall_millis = int(elapsed_ms) if config.record_timing else 0
        rows.append(row)
    return rows, traces


def assign_ranks(rows: list[BenchmarkRow]) -> None:
    """Within-SCM MSE ranks; ties share the mean rank, and the failed cells
    share the mean of the last places, so an SCM's k ranks sum to k(k+1)/2."""
    by_scm: dict[str, list[BenchmarkRow]] = {}
    for row in rows:
        by_scm.setdefault(row.scm_id, []).append(row)
    for scm_rows in by_scm.values():
        valid = [r for r in scm_rows if not r.failed]
        ranks = fit_metrics.mean_ranks(np.array([r.mse for r in valid], dtype=np.float64))
        for r, rank in zip(valid, ranks):
            r.rank = float(rank)
        last = len(valid) + (len(scm_rows) - len(valid) + 1) / 2
        for r in scm_rows:
            if r.failed:
                r.rank = last


def run_experiment(config: ExperimentConfig) -> tuple[list[BenchmarkRow], dict]:
    """Execute every replicate and method cell, in ``min(workers, replicates,
    cpu count)`` processes (in this one if that is 1); returns ranked rows +
    traces, the same for any process count."""
    replicates = range(config.replicates)
    workers = min(config.workers, config.replicates, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_replicate, itertools.repeat(config), replicates))
    else:
        outcomes = [_run_replicate(config, r) for r in replicates]
    rows: list[BenchmarkRow] = []
    traces: dict = {}
    for rep_rows, rep_traces in outcomes:
        rows.extend(rep_rows)
        traces.update(rep_traces)
    assign_ranks(rows)
    return rows, traces


# ---------------------------------------------------------------------------
# persistence and reporting
# ---------------------------------------------------------------------------


# the results CSV schema: BenchmarkRow's fields in order, with their types
_ROW_TYPES = typing.get_type_hints(BenchmarkRow)


def _cell(value, kind):
    if kind is float:
        return repr(float(value))
    if typing.get_origin(kind) is tuple:
        return ";".join(str(v) for v in value)
    return value


def _parse_cell(text: str, kind):
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(v) for v in text.split(";") if v)
    return kind(text)


def rows_to_csv(rows: list[BenchmarkRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ROW_TYPES)
    for r in rows:
        writer.writerow([_cell(getattr(r, name), kind) for name, kind in _ROW_TYPES.items()])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[BenchmarkRow]:
    records = csv_records("results CSV", text)
    if next(records, (0, None))[1] != list(_ROW_TYPES):
        raise ConfigError(f"results CSV header must be {','.join(_ROW_TYPES)}")
    rows = []
    for line, rec in records:
        if not rec:
            continue
        try:
            if len(rec) != len(_ROW_TYPES):
                raise ValueError(f"{len(rec)} cells, expected {len(_ROW_TYPES)}")
            row = BenchmarkRow(*map(_parse_cell, rec, _ROW_TYPES.values()))
            method = MethodSpec(row.selector, row.estimator, row.metric or MethodSpec.metric)
            if row.method != method.method_id:
                raise ValueError(f"method {row.method!r} is not {method.method_id!r}")
            if row.metric != method.metric_cell:
                raise ValueError(f"metric {row.metric!r} is not {method.metric_cell!r}")
            if row.n_selected != len(row.selected):
                raise ValueError(f"n_selected {row.n_selected} but {len(row.selected)} selected")
            rows.append(row)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"results CSV line {line}: {exc}") from exc
    return rows


@dataclass
class ReportSummary:
    rank_table: dict[str, fit_metrics.RankSummary]
    inclusion: dict[str, float]
    random_reference: typing.ClassVar[float] = 0.5

    def format(self) -> str:
        lines = ["method                          mean_rank    sd  inclusion_error"]
        for method in sorted(self.rank_table, key=lambda m: self.rank_table[m].mean):
            rs = self.rank_table[method]
            ie = self.inclusion.get(method)
            ie_txt = f"{ie:.3f}" if ie is not None else "  n/a"
            lines.append(f"{method:<32}{rs.mean:>8.2f}{rs.sd:>7.2f}    {ie_txt}")
        lines.append(f"(random half-selection reference inclusion error: {self.random_reference})")
        return "\n".join(lines)


def report(rows: list[BenchmarkRow]) -> ReportSummary:
    """Per-method mean rank and mean inclusion error over defined rows."""
    ranks: dict[str, list[float]] = {}
    ies: dict[str, list[float]] = {}
    for r in rows:
        ranks.setdefault(r.method, []).append(r.rank)
        if r.ie_defined:
            ies.setdefault(r.method, []).append(r.inclusion_error)
    table = {
        m: fit_metrics.RankSummary(float(np.mean(v)), float(np.std(v)), len(v))
        for m, v in ranks.items()
    }
    inclusion = {m: float(np.mean(v)) for m, v in ies.items()}
    return ReportSummary(rank_table=table, inclusion=inclusion)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


# optional top-level keys and their JSON types; an absent key keeps the
# field's ExperimentConfig default
_CONFIG_TYPES = {
    name: kind
    for name, kind in typing.get_type_hints(ExperimentConfig).items()
    if name not in ("base", "methods")
}


def config_from_json(text: str) -> ExperimentConfig:
    """The ``ExperimentConfig`` of a config JSON; ConfigError if a value
    fails ``typed``, a method or the ``grid`` fails ``spec_from_json``, a key
    is unknown, or ``ExperimentConfig`` rejects the config."""
    payload = json_object("config", text, ("scm", "methods", *_CONFIG_TYPES), ("scm",))
    options = {k: typed(f"config '{k}'", payload[k], kind) for k, kind in _CONFIG_TYPES.items()
               if k in payload}
    if "grid" in options:
        options["grid"] = spec_from_json("config 'grid'", options["grid"], listed=True)
    methods = typed("config 'methods'", payload.get("methods", []), [dict])
    return ExperimentConfig(
        base=typed("config 'scm'", payload["scm"], dict),
        methods=tuple(spec_from_json("config 'methods'", m, cls=MethodSpec) for m in methods),
        **options,
    )
