"""CLI subcommands, exit codes, and file outputs."""

import json

import numpy as np
import pytest

from hteselect import harness, structure_fit
from hteselect.cli import main
from hteselect.harness import rows_from_csv
from hteselect.scm_gen import dataset_from_csv, dataset_to_csv, graph_from_json


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
    expected, expected_trace, _ = harness._run_selector(
        harness.MethodSpec(selector), ds.x, ds.t, ds.y, graph,
        structure_fit.CiTestConfig(), 2,
    )
    printed = capsys.readouterr().out.split()
    assert [int(c) for c in printed] == list(expected)
    assert json.loads(trace.read_text()) == json.loads(json.dumps(expected_trace))


def test_select_empty_selection_exits_two(simulated, monkeypatch):
    data, _ = simulated
    empty = structure_fit.StructureFitResult((), frozenset(), structure_fit.PartialGraph())
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
    ],
    ids=["wrong_header", "short_row", "bad_cell", "empty"],
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
    ],
    ids=[
        "t_two", "t_half", "t_negative", "t_nan", "short_rows", "long_rows", "y_nan", "x_inf",
        "tau_minus_inf", "one_short_row", "one_long_row", "x_not_a_number", "y_empty",
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


def _add_back_edge(payload):
    """The graph with the reverse of its first edge added: a two-node cycle."""
    adj, d = list(payload["adj"]), len(payload["order"])
    i, j = divmod(adj.index(1), d)
    adj[j * d + i] = 1
    return dict(payload, adj=adj)


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
    ],
    ids=[
        "empty", "no_t_node", "list", "spec_list", "t_node_out_of_range", "t_node_str",
        "y_node_bool", "mediator_out_of_range", "mediators_int", "order_truncated",
        "order_repeated", "order_out_of_range", "hte_key_out_of_range", "hte_key_str",
        "hte_parent_negative", "hte_parents_int", "adj_short", "coef_long", "adj_nested",
        "adj_cycle", "order_reversed", "y_node_is_t_node", "y_node_mediator",
        "t_node_mediator",
    ],
)
def test_select_on_malformed_graph_exits_one(edit, message, simulated, tmp_path, capsys):
    data, graph = simulated
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(edit(json.loads(graph.read_text()))))
    assert main(["select", "--data", str(data), "--graph", str(path), "--selector", "None"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
