"""CLI subcommands, exit codes, and file outputs."""

import contextlib
import copy
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hteselect import cli, harness, structure_fit
from hteselect.cli import main
from hteselect.harness import rows_from_csv
from hteselect.scm_gen import (
    Dataset,
    ScmSpec,
    dataset_from_csv,
    dataset_to_csv,
    graph_from_json,
    graph_to_json,
    make_dataset,
)


@pytest.fixture
def simulated(tmp_path):
    data = tmp_path / "data.csv"
    graph = tmp_path / "graph.json"
    code = main(
        [
            "simulate", "--d", "8", "--p-e", "0.4", "--gamma", "--m", "1",
            "--p-h", "1", "--n", "600", "--seed", "5",
            "--out-data", str(data), "--out-graph", str(graph),
        ]
    )
    assert code == 0
    return data, graph


def test_simulate_writes_round_trippable_files(simulated):
    data, graph = simulated
    ds = dataset_from_csv(data.read_text())
    assert ds.x.shape == (600, 6)
    payload = json.loads(graph.read_text())
    assert set(payload) >= {"order", "adj", "coef", "t_node", "y_node",
                            "mediators", "hte_parents", "spec"}
    assert len(payload["adj"]) == 64


def test_simulate_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        data = tmp_path / f"{tag}.csv"
        graph = tmp_path / f"{tag}.json"
        main(["simulate", "--d", "6", "--p-e", "0.5", "--n", "50", "--seed", "9",
              "--out-data", str(data), "--out-graph", str(graph)])
        outs.append((data.read_text(), graph.read_text()))
    assert outs[0] == outs[1]


def test_select_prints_columns_and_trace(simulated, tmp_path, capsys):
    data, _ = simulated
    trace = tmp_path / "trace.json"
    code = main(
        ["select", "--data", str(data), "--selector", "HteFitF",
         "--seed", "2", "--trace-out", str(trace)]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()
    cols = [int(c) for c in printed.split()]
    assert len(cols) >= 1
    payload = json.loads(trace.read_text())
    assert payload["final_set"] == cols


def test_select_oracle_requires_graph(simulated, capsys):
    data, graph = simulated
    assert main(["select", "--data", str(data), "--selector", "OracleValid"]) == 1
    assert "OracleValid" in capsys.readouterr().err
    code = main(
        ["select", "--data", str(data), "--selector", "OracleValid",
         "--graph", str(graph)]
    )
    assert code == 0


@pytest.mark.parametrize("selector", harness.SELECTORS)
def test_select_matches_harness_dispatch(selector, simulated, tmp_path, capsys):
    data, graph_path = simulated
    trace = tmp_path / "trace.json"
    code = main(
        ["select", "--data", str(data), "--selector", selector, "--seed", "2",
         "--graph", str(graph_path), "--trace-out", str(trace)]
    )
    assert code == 0
    ds = dataset_from_csv(data.read_text())
    graph, _ = graph_from_json(graph_path.read_text())
    expected, expected_trace, _ = harness.run_selector(
        harness.MethodSpec(selector), ds.x, ds.t, ds.y, graph,
        structure_fit.CiTestConfig(), 2,
    )
    printed = capsys.readouterr().out.split()
    assert [int(c) for c in printed] == list(expected)
    assert json.loads(trace.read_text()) == json.loads(json.dumps(expected_trace))


def test_select_empty_selection_exits_two(simulated, monkeypatch):
    data, _ = simulated
    empty = structure_fit.StructureFitResult((), frozenset(), edges=())
    monkeypatch.setattr(structure_fit, "structure_fit", lambda *a, **kw: empty)
    assert main(["select", "--data", str(data), "--selector", "StructureFit"]) == 2


def test_select_backward_on_one_feature_dataset(tmp_path, capsys):
    data, graph = tmp_path / "data.csv", tmp_path / "graph.json"
    assert main(["simulate", "--d", "3", "--p-e", "1.0", "--gamma", "--n", "500",
                 "--out-data", str(data), "--out-graph", str(graph)]) == 0
    assert dataset_from_csv(data.read_text()).x.shape[1] == 1
    capsys.readouterr()
    assert main(["select", "--data", str(data), "--selector", "HteFitB"]) == 0
    assert capsys.readouterr().out.split() == ["0"]


@pytest.mark.parametrize("selector", ["HteFitF", "HteFitB"])
def test_select_exits_two_when_no_subset_scores(selector, tmp_path, capsys):
    # 4 treated rows in 60: an inner split keeps treated training rows of one
    # parity only, so a DR cross-fitting fold has no treated row to fit on
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 4))
    t = np.zeros(60)
    t[rng.choice(60, 4, replace=False)] = 1.0
    y = x[:, 0] + t + rng.normal(size=60)
    path = tmp_path / "few_treated.csv"
    path.write_text(dataset_to_csv(Dataset(x, t, y, np.ones(60), np.zeros(4, dtype=bool))))
    args = ["select", "--data", str(path), "--selector", selector, "--estimator", "DR"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fold lost a treatment arm" in captured.err


def test_select_structure_fit_on_non_finite_data_exits_one(simulated, tmp_path, capsys):
    data, _ = simulated
    ds = dataset_from_csv(data.read_text())
    ds.x[7, 0] = np.nan
    bad = tmp_path / "nan.csv"
    bad.write_text(dataset_to_csv(ds))
    assert main(["select", "--data", str(bad), "--selector", "StructureFit"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "line 9, column x0 holds nan" in err


def test_benchmark_and_report(tmp_path, capsys):
    config = {
        "scm": {"d": 6, "p_e": 0.4, "sigma": 0.2, "rho": 0.5, "gamma": True,
                "m": 1, "p_h": 0, "m_p": False, "n": 400},
        "methods": [
            {"selector": "None", "estimator": "T"},
            {"selector": "OracleValid", "estimator": "T"},
        ],
        "replicates": 2,
        "master_seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    traces = tmp_path / "traces.json"
    code = main(["benchmark", "--config", str(cfg_path), "--out", str(out),
                 "--traces", str(traces)])
    assert code == 0
    rows = rows_from_csv(out.read_text())
    assert len(rows) == 4
    json.loads(traces.read_text())

    capsys.readouterr()
    assert main(["report", "--results", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "OracleValid+T" in printed


def test_bad_config_exits_one(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1

    cfg.write_text(json.dumps({"scm": {"d": 1}, "methods": []}))
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1

    # the config alone sets the process count
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                 "--workers", "2"]) == 1


@pytest.mark.parametrize("option", ["--out", "--traces"])
@pytest.mark.parametrize("where", ["does not exist", "is a directory", "is not writable"])
def test_benchmark_checks_output_paths_before_running(option, where, tmp_path, monkeypatch,
                                                       capsys):
    def never(config):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(harness, "run_experiment", never)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scm": {"d": 6, "p_e": 0.4, "sigma": 0.2, "rho": 0.5,
                                       "gamma": True, "m": 1, "p_h": 0, "m_p": False,
                                       "n": 400},
                               "methods": [{"selector": "None"}]}))
    paths = {"--out": tmp_path / "results.csv", "--traces": tmp_path / "traces.json"}
    paths["--out"].write_text("kept")  # an existing results file is not truncated
    if where == "does not exist":
        paths[option] = tmp_path / "missing" / "results.csv"
    elif where == "is a directory":
        paths[option] = tmp_path
    else:  # the file, or the directory that would hold a new one, refuses writes
        locked = {paths[option], tmp_path}
        real_access = os.access
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: Path(path) not in locked and real_access(path, mode))
    args = ["benchmark", "--config", str(cfg)]
    for name, path in paths.items():
        args += [name, str(path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {option} {paths[option]}") and where in err
    assert (tmp_path / "results.csv").read_text() == "kept"
    assert not (tmp_path / "traces.json").exists()


def test_infeasible_spec_exits_two(tmp_path):
    config = {
        "scm": {"d": 5, "p_e": 0.0, "sigma": 0.0, "rho": 0.5, "gamma": True,
                "m": 1, "p_h": 0, "m_p": False, "n": 100},
        "methods": [{"selector": "None", "estimator": "T"}],
        "replicates": 1,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    # the failed replicate is still recorded, one typed row per method
    assert "failed:InfeasibleSpec" in (tmp_path / "o.csv").read_text()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


@pytest.fixture
def results_csv(tmp_path):
    rows = [
        harness.BenchmarkRow(
            scm_id="scm0000", method="None+T", selector="None", estimator="T",
            metric="", n_selected=2, selected=(0, 1), mse=0.5, tau_risk=0.25,
            inclusion_error=0.0, rank=1.0, flags=("ie_undefined",),
        )
    ]
    return harness.rows_to_csv(rows)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("scm_id", "scm", 1), "header"),
        (lambda text: text.rstrip("\n").rsplit(",", 1)[0] + "\n", "line 2: 12 cells"),
        (lambda text: text + "scm0001,None+T,None,T,,one,0,0.5,0.25,0.0,1.0,0,\n", "line 3"),
        (lambda text: "", "header"),
        (lambda text: text + "1" * 200000 + "\n", "results CSV line 3: field larger than field"),
        (lambda text: text.replace(",2,0;1,", ",5,0;1,"), "line 2: n_selected 5 but 2 selected"),
        (lambda text: text.replace(",None,T,", ",Bogus,T,"), "line 2: unknown selector 'Bogus'"),
        (lambda text: text.replace("None+T", "HteFS(TauRisk)+T"), "line 2: method 'HteFS"),
        (lambda text: text.replace(",None,T,,", ",None,T,CFCV,"),
         "line 2: metric 'CFCV' is not ''"),
        (lambda text: text.replace("None+T,None,", "HteFitF(TauRisk)+T,HteFitF,"),
         "line 2: metric '' is not 'TauRisk'"),
    ],
    ids=["wrong_header", "short_row", "bad_cell", "empty", "huge_cell",
         "count_contradicts_columns", "unknown_selector", "method_contradicts_row",
         "metric_on_metricless_selector", "blank_metric_on_metric_selector"],
)
def test_report_on_malformed_results_exits_one(edit, message, results_csv, tmp_path, capsys):
    path = tmp_path / "results.csv"
    path.write_text(edit(results_csv))
    assert main(["report", "--results", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("text", ["", "x0,t,y,tau\n"], ids=["empty", "header_only"])
def test_select_on_dataset_without_rows_exits_one(text, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(text)
    assert main(["select", "--data", str(data), "--selector", "None"]) == 1
    assert "config error" in capsys.readouterr().err


def _set_cell(column, value):
    """Edit one cell of the second data row (CSV line 3)."""

    def edit(lines):
        cells = lines[2].split(",")
        cells[column] = value
        return lines[:2] + [",".join(cells)] + lines[3:]

    return edit


def _set_column(column, value):
    """Edit one cell of every data row."""

    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[column] = value
        return lines[:1] + [",".join(cells) for cells in rows]

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_cell(-3, "2"), "column t must hold 0 or 1, found 2.0"),
        (_set_cell(-3, "0.5"), "column t must hold 0 or 1, found 0.5"),
        (_set_cell(-3, "-1"), "column t must hold 0 or 1, found -1.0"),
        (_set_cell(-3, "nan"), "column t must hold 0 or 1, found nan"),
        (lambda lines: lines[:1] + [r.rsplit(",", 1)[0] for r in lines[1:]], "the header"),
        (lambda lines: lines[:1] + [r + ",0" for r in lines[1:]], "the header"),
        (_set_cell(-2, "nan"), "line 3, column y holds nan"),
        (_set_cell(0, "inf"), "line 3, column x0 holds inf"),
        (_set_cell(-1, "-inf"), "line 3, column tau holds -inf"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "line 3 lacks column tau: 8 cells, the header 9"),
        (lambda lines: lines[:2] + [lines[2] + ",0"] + lines[3:],
         "line 3 runs past column tau: 10 cells, the header 9"),
        (_set_cell(0, "abc"), "line 3, column x0 holds 'abc', not a number"),
        (_set_cell(-2, ""), "line 3, column y holds '', not a number"),
        (lambda lines: [",".join(line.split(",")[-3:]) for line in lines],
         "header 't,y,tau' has no feature column"),
        (lambda lines: ["y" + lines[0][2:]] + lines[1:], "feature column 0 is named 'y'"),
        (lambda lines: ["tau" + lines[0][2:]] + lines[1:], "feature column 0 is named 'tau'"),
        (lambda lines: [lines[0].replace("x1,", "x0,", 1)] + lines[1:],
         "feature column 1 repeats the name 'x0'"),
        (_set_column(-3, "1"), "column t holds only the arm t = 1"),
        (_set_cell(0, "1" * 200000), "dataset CSV line 3: field larger than field limit"),
    ],
    ids=[
        "t_two", "t_half", "t_negative", "t_nan", "short_rows", "long_rows", "y_nan", "x_inf",
        "tau_minus_inf", "one_short_row", "one_long_row", "x_not_a_number", "y_empty",
        "no_features", "feature_named_y", "feature_named_tau", "repeated_name", "one_arm",
        "huge_cell",
    ],
)
def test_select_on_malformed_dataset_exits_one(edit, message, simulated, tmp_path, capsys):
    data, _ = simulated
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(edit(data.read_text().splitlines())) + "\n")
    args = ["select", "--data", str(path), "--selector", "HteFitF", "--metric", "NNPEHE"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_select_with_negative_seed_exits_one(simulated, capsys):
    data, _ = simulated
    assert main(["select", "--data", str(data), "--selector", "HteFitF", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--seed must be >= 0" in err


def test_select_with_graph_of_another_dataset_exits_one(simulated, tmp_path, capsys):
    data, graph = simulated  # d = 8: 6 feature columns
    small_data, small_graph = tmp_path / "small.csv", tmp_path / "small.json"
    assert main(["simulate", "--d", "6", "--p-e", "0.4", "--n", "200", "--seed", "1",
                 "--out-data", str(small_data), "--out-graph", str(small_graph)]) == 0
    for data_path, graph_path, counts in [
        (small_data, graph, "6 feature nodes, but the data has 4"),
        (data, small_graph, "4 feature nodes, but the data has 6"),
    ]:
        args = ["select", "--data", str(data_path), "--graph", str(graph_path),
                "--selector", "OracleOSet"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "config error" in err and counts in err


def _add_back_edge(payload):
    """The graph with the reverse of its first edge added: a two-node cycle."""
    adj, d = list(payload["adj"]), len(payload["order"])
    i, j = divmod(adj.index(1), d)
    adj[j * d + i] = 1
    return dict(payload, adj=adj)


def _drop_chain_edge(payload):
    """The graph without the edge from ``t_node`` to the next chain node."""
    adj, d = list(payload["adj"]), len(payload["order"])
    adj[payload["t_node"] * d + [*payload["mediators"], payload["y_node"]][0]] = 0
    return dict(payload, adj=adj)


def _non_parent_interaction(payload):
    """The graph with an ``hte_parents`` entry of ``y_node`` that is not its parent."""
    d, y = len(payload["order"]), payload["y_node"]
    stranger = next(v for v in range(d) if not payload["adj"][v * d + y])
    return dict(payload, hte_parents={str(y): [stranger]})


def _off_edge(payload, key, value):
    """The graph with ``key`` set to ``value`` at the first pair (i, j), i
    before j in ``order``, that is not an edge of ``adj``."""
    order, d = payload["order"], len(payload["order"])
    cell = next(i * d + j for at, i in enumerate(order) for j in order[at + 1 :]
                if not payload["adj"][i * d + j])
    values = list(payload[key])
    values[cell] = value
    return dict(payload, **{key: values})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: {}, "lacks keys ['spec'"),
        (lambda payload: {k: v for k, v in payload.items() if k != "t_node"}, "['t_node']"),
        (lambda payload: [payload], "must be an object, got list"),
        (lambda payload: dict(payload, spec=[]), "'spec' and 'hte_parents' must be objects"),
        (lambda payload: dict(payload, t_node=99), "'t_node' holds 99, not a node in range(8)"),
        (lambda payload: dict(payload, t_node="a"), "'t_node' holds 'a'"),
        (lambda payload: dict(payload, y_node=True), "'y_node' holds True"),
        (lambda payload: dict(payload, mediators=[42]), "'mediators' holds 42"),
        (lambda payload: dict(payload, mediators=3), "'mediators' must be a list"),
        (lambda payload: dict(payload, order=payload["order"][:-1]), "permutation of range(8)"),
        (lambda payload: dict(payload, order=[0] * 8), "permutation of range(8)"),
        (lambda payload: dict(payload, order=list(range(7)) + [8]), "'order' holds 8"),
        (lambda payload: dict(payload, hte_parents={"9": [0]}), "'hte_parents' holds 9"),
        (lambda payload: dict(payload, hte_parents={"a": [0]}), "'hte_parents' holds 'a'"),
        (lambda payload: dict(payload, hte_parents={"1": [-1]}), "'hte_parents' holds -1"),
        (lambda payload: dict(payload, hte_parents={"1": 0}), "'hte_parents' must be a list"),
        (lambda payload: dict(payload, adj=payload["adj"][:-1]), "'adj' must be a list of d*d"),
        (lambda payload: dict(payload, coef=payload["coef"] + [0.0]), "'coef' must be a list"),
        (lambda payload: dict(payload, adj=[payload["adj"]]), "'adj' must be a list of d*d"),
        (_add_back_edge, "runs against 'order'"),
        (lambda payload: dict(payload, order=payload["order"][::-1]), "runs against 'order'"),
        (lambda payload: dict(payload, y_node=payload["t_node"]), "'y_node' are both node"),
        (lambda payload: dict(payload, mediators=[payload["y_node"]]), "lists the 'y_node'"),
        (lambda payload: dict(payload, mediators=[payload["t_node"]]), "lists the 't_node'"),
        (_drop_chain_edge, "is not a directed path in 'adj'"),
        (lambda payload: dict(payload, hte_parents={str(payload["t_node"]): []}),
         "is neither the 'y_node'"),
        (_non_parent_interaction, "is not its parent in 'adj'"),
        (lambda payload: _off_edge(payload, "adj", 1), "is 0.0, but 'adj' has the edge"),
        (lambda payload: _off_edge(payload, "coef", 0.5), "is 0.5, but 'adj' lacks the edge"),
    ],
    ids=[
        "empty", "no_t_node", "list", "spec_list", "t_node_out_of_range", "t_node_str",
        "y_node_bool", "mediator_out_of_range", "mediators_int", "order_truncated",
        "order_repeated", "order_out_of_range", "hte_key_out_of_range", "hte_key_str",
        "hte_parent_negative", "hte_parents_int", "adj_short", "coef_long", "adj_nested",
        "adj_cycle", "order_reversed", "y_node_is_t_node", "y_node_mediator",
        "t_node_mediator", "chain_not_a_path", "hte_key_off_chain", "hte_entry_not_parent",
        "adj_edge_without_coef", "coef_off_adj",
    ],
)
def test_select_on_malformed_graph_exits_one(edit, message, simulated, tmp_path, capsys):
    data, graph = simulated
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(edit(json.loads(graph.read_text()))))
    assert main(["select", "--data", str(data), "--graph", str(path), "--selector", "None"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("option", ["--data", "--graph", "--config", "--results"])
def test_directory_as_input_path_exits_one(option, simulated, tmp_path, capsys):
    data, graph = simulated
    args = {
        "--data": ["select", "--data", str(tmp_path), "--selector", "None"],
        "--graph": ["select", "--data", str(data), "--graph", str(tmp_path), "--selector", "None"],
        "--config": ["benchmark", "--config", str(tmp_path), "--out", str(tmp_path / "o.csv")],
        "--results": ["report", "--results", str(tmp_path)],
    }[option]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path) in err


def test_non_utf8_input_exits_one(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_bytes(b"x0,t,y,tau\n\xff,0,1,1\n")
    assert main(["select", "--data", str(path), "--selector", "None"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{path} is not UTF-8 text" in err


# ---------------------------------------------------------------------------
# reader fuzz: one value inside a valid graph JSON or config replaced
# ---------------------------------------------------------------------------

# the replacements tried at every path, besides the int or float equal to
# the value there
FUZZ_VALUES = [None, True, {}, [], "1", 1, 1.0, -1, 2**63]

FUZZ_SPEC = ScmSpec(d=6, p_e=0.5, sigma=0.2, rho=1.0, gamma=True, m=1, p_h=1, m_p=False,
                    n=120, seed=1)
FUZZ_GRAPH = json.loads(graph_to_json(make_dataset(FUZZ_SPEC)[0], FUZZ_SPEC))

# replicates and workers are left out: a huge count of either is a valid
# config of an experiment that does not end
FUZZ_CONFIG = {
    "scm": {"d": 5, "p_e": 0.5, "sigma": 0.2, "rho": 1.0, "gamma": True,
            "m": 1, "p_h": 0, "m_p": False, "n": 200},
    "grid": {"n": [200]},
    "methods": [{"selector": "None", "estimator": "T"}],
    "split_ratio": 0.8, "master_seed": 3, "alpha": 0.05, "max_cond": 1,
    "record_timing": False,
}


def _paths(node, path=()):
    """The path of every value inside a JSON value, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [(*path, key), *_paths(child, (*path, key))]]


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _mutations(payload):
    """(path, replacement) pairs for ``payload``."""

    def values(path):
        original = _at(payload, path)
        twin = ([float(original)] if type(original) is int else
                [int(original)] if type(original) is float and original.is_integer() else [])
        return st.tuples(st.just(path), st.sampled_from(FUZZ_VALUES + twin))

    return st.sampled_from(_paths(payload)).flatmap(values)


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _check_fuzzed(payload, target, args, mutation):
    """With ``mutation`` applied to ``payload``, written to ``target``,
    ``main(args)`` exits 0, 1 or 2 and raises nothing; an exit 1 names the
    mutated key (the last on the path that is not a node id); an int in
    place of an equal float leaves the output as that of ``payload``."""
    path, value = mutation
    fuzzed = copy.deepcopy(payload)
    _at(fuzzed, path[:-1])[path[-1]] = value
    target.write_text(json.dumps(fuzzed))
    code, out, err = _run(args)
    assert code in (0, 1, 2), err
    key = [k for k in path if isinstance(k, str) and not k.isdecimal()][-1]
    if code == 1:
        assert re.search(rf"(?<!\w){key}(?!\w)", err), err
    original = _at(payload, path)
    if type(original) is float and type(value) is int and value == original:
        target.write_text(json.dumps(payload))
        assert (code, out) == _run(args)[:2] and code == 0


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "data.csv").write_text(dataset_to_csv(make_dataset(FUZZ_SPEC)[1]))
    return root


@settings(max_examples=300)
@given(mutation=_mutations(FUZZ_GRAPH))
@example(mutation=(("coef", 1), {}))  # escaped as a TypeError before
@example(mutation=(("spec", "d"), 6.0))
@example(mutation=(("spec", "rho"), 1))
@example(mutation=(("spec", "d"), 3))  # named a node of 'order', not 'd', before
@example(mutation=(("spec", "d"), 4))
@example(mutation=(("spec", "d"), 5))
@example(mutation=(("adj", 8), 1))  # an edge 1 -> 2 with coef 0 loaded before
@example(mutation=(("coef", 8), 1.0))  # a coef off the edges of adj loaded before
def test_graph_reader_fuzz(fuzz_dir, mutation):
    args = ["select", "--data", str(fuzz_dir / "data.csv"), "--graph",
            str(fuzz_dir / "graph.json"), "--selector", "OracleValid"]
    _check_fuzzed(FUZZ_GRAPH, fuzz_dir / "graph.json", args, mutation)


@settings(max_examples=150)
@given(mutation=_mutations(FUZZ_CONFIG))
@example(mutation=(("scm", "rho"), 1))
def test_config_reader_fuzz(fuzz_dir, mutation):
    args = ["benchmark", "--config", str(fuzz_dir / "config.json"),
            "--out", str(fuzz_dir / "results.csv")]
    _check_fuzzed(FUZZ_CONFIG, fuzz_dir / "config.json", args, mutation)
