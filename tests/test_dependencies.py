"""The package depends on numpy and scipy alone.

The imports are read from the source, not from ``sys.modules``: importing
scipy loads third-party modules of its own (``charset_normalizer`` and
``certifi`` among them) that the package never imports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "hteselect").glob("*.py"))
ALLOWED = {"numpy", "scipy"}


def _imported_roots(path: Path) -> set[str]:
    """Top-level modules of the absolute imports in ``path``."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_stdlib_numpy_and_scipy(path):
    foreign = _imported_roots(path) - set(sys.stdlib_module_names) - ALLOWED
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_scan_sees_both_allowed_dependencies():
    assert ALLOWED <= set().union(*map(_imported_roots, SOURCES))


def test_pyproject_lists_exactly_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]]
    assert sorted(names) == sorted(ALLOWED)
