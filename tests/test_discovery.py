"""StructureFit's discovery verdicts against tests/data/discovery.json.

The method corpus reaches only small SCMs, where a changed CI level or a
dropped collider parent moves no row.  This record pins, per SCM of a wider
panel, the selection, the forbidden set, the directed edges and each visited
node's PC set and collider parents.  Regenerate it with
``tests/data/make_discovery.py`` only when discovery verdicts are meant to
change.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

from hteselect.scm_gen import ScmSpec

DATA = Path(__file__).parent / "data"
RECORD = json.loads((DATA / "discovery.json").read_text())

_module = importlib.util.spec_from_file_location("make_discovery", DATA / "make_discovery.py")
make_discovery = importlib.util.module_from_spec(_module)
_module.loader.exec_module(make_discovery)


def test_record_covers_the_panel():
    assert [r["spec"] for r in RECORD] == [dataclasses.asdict(s) for s in make_discovery.panel()]


def test_discovery_matches_record():
    moved = [pin["spec"]["seed"] for pin in RECORD
             if make_discovery.discover(ScmSpec(**pin["spec"])) != pin]
    assert not moved, f"{len(moved)} SCMs moved (seeds {moved})"


def test_forbidden_is_the_treatment_plus_every_child_found():
    # T's column is d - 2, after the d - 2 feature columns; each edge's tail
    # is T or a node an earlier edge reached
    for pin in RECORD:
        forbidden = set(pin["forbidden"])
        assert forbidden == {pin["spec"]["d"] - 2} | {child for _, child in pin["edges"]}
        assert all(node in forbidden for node, _ in pin["edges"])
