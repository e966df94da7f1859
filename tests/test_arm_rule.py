"""One treatment-label rule: labels are 0 or 1 and both arms occur.

Every public fit on binary-treatment data rejects a label other than 0 or 1
and an empty arm with ``DegenerateArms`` through ``errors.check_arms``, and
the source raises that error nowhere else.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from hteselect import estimators, fit_metrics, supervised
from hteselect.errors import DegenerateArms, check_arms
from hteselect.hte_fit import SubsetScorer

SOURCES = sorted((Path(__file__).parents[1] / "src" / "hteselect").glob("*.py"))
N = 60

# each takes (x, t, y)
CALLERS = {
    **{f"prepare_{kind}": lambda x, t, y, kind=kind: estimators.prepare(kind, x, t, y)
       for kind in estimators.ESTIMATOR_KINDS},
    **{f"fit_estimator_{kind}": lambda x, t, y, kind=kind: estimators.fit_estimator(kind, x, t, y)
       for kind in estimators.ESTIMATOR_KINDS},
    **{f"scorer_{metric}": lambda x, t, y, metric=metric: SubsetScorer(x, t, y, metric=metric)
       for metric in fit_metrics.METRIC_KINDS},
    "fit_logistic": lambda x, t, y: supervised.fit_logistic(x, t),
    "nn_imputed_effects": lambda x, t, y: fit_metrics.nn_imputed_effects(x, y, t),
}

# both arms and a label of 2 in every seventh row, of either parity; or one arm only
LABELS = {
    "labels_0_1_2": (np.where(np.arange(N) % 7 == 3, 2.0, np.arange(N) % 2),
                     "treatment labels must be 0 or 1"),
    "all_treated": (np.ones(N), "lost a treatment arm"),
    "all_control": (np.zeros(N), "lost a treatment arm"),
}


def _data(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, 3)), rng.normal(size=N)


@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("caller", CALLERS)
def test_public_fits_reject_bad_labels_and_empty_arms(caller, labels):
    x, y = _data()
    t, match = LABELS[labels]
    with pytest.raises(DegenerateArms, match=match):
        CALLERS[caller](x, t, y)


def test_dr_fold_that_loses_an_arm_raises():
    x, y = _data()
    t = (np.arange(N) % 4 == 0).astype(float)  # treated rows are all even: odd fold has none
    with pytest.raises(DegenerateArms, match="cross-fitting fold lost a treatment arm"):
        estimators.prepare("DR", x, t, y)


@pytest.mark.parametrize(("t", "match"), [
    ([0, 1, 1], None),
    (np.array([True, False]), None),
    (np.array([0.0, 1.0, np.nan]), "labels"),
    (np.array([0.0, 1.0, -0.0, 0.5]), "labels"),
    (np.array([], dtype=float), "lost"),
    ([1, 1], "lost"),
])
def test_check_arms(t, match):
    if match is None:
        check_arms(t, "here")
    else:
        with pytest.raises(DegenerateArms, match=f"^here.*{match}"):
            check_arms(t, "here")


def _named(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "DegenerateArms"


def _degenerate_arms_sites(tree) -> list[int]:
    """Lines under ``tree`` that construct ``DegenerateArms`` or raise the bare class."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and _named(node.func))
            or (isinstance(node, ast.Raise) and node.exc is not None and _named(node.exc))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_degenerate_arms_is_raised_only_by_check_arms(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = _degenerate_arms_sites(tree)
    if path.name != "errors.py":
        assert not sites, f"{path.name} raises DegenerateArms at lines {sites}; call check_arms"
        return
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "check_arms")
    assert sites and sites == _degenerate_arms_sites(rule), "only check_arms raises it"
