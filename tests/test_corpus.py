"""Every method id against its pinned rows in tests/data/corpus.json.

The corpus runs each selector with each estimator (and each metric where
the selector takes one) on a small SCM grid.  Selections and flags must
match exactly, MSE and tau-risk within 1e-9 relative.  Regenerate with
``tests/data/make_corpus.py`` only when selection results are meant to
change.
"""

import json
import math
from pathlib import Path

import pytest

from hteselect.harness import config_from_json, run_experiment

CORPUS = json.loads((Path(__file__).parent / "data" / "corpus.json").read_text())


@pytest.fixture(scope="module")
def rows():
    config = config_from_json(json.dumps(CORPUS["config"]))
    return run_experiment(config)[0]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9) or (math.isnan(a) and math.isnan(b))


def test_corpus_covers_every_method_id(rows):
    methods = {r["method"] for r in CORPUS["rows"]}
    assert len(methods) == 68
    assert {r.method for r in rows} == methods


def test_corpus_rows_match(rows):
    assert [(r.scm_id, r.method) for r in rows] == [
        (p["scm_id"], p["method"]) for p in CORPUS["rows"]
    ]
    moved = []
    for row, pin in zip(rows, CORPUS["rows"]):
        same = (
            list(row.selected) == pin["selected"]
            and row.n_selected == pin["n_selected"]
            and list(row.flags) == pin["flags"]
            and _close(row.mse, pin["mse"])
            and _close(row.tau_risk, pin["tau_risk"])
        )
        if not same:
            moved.append(f"{row.scm_id}/{row.method}")
    assert not moved, f"{len(moved)} rows moved: {moved[:10]}"
