"""Every span of the benchmark's tracer still finds the package name it wraps.

``perfbench/tracing.py`` rebinds package functions and methods by name, so a
renamed or moved function would only fail the benchmark run.  This loads the
tracer by file path, as ``test_discovery.py`` loads its generator, and checks
each of its ``TARGETS`` against the package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"

_module = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = sys.modules[_module.name] = importlib.util.module_from_spec(_module)
_module.loader.exec_module(tracing)  # registered first: its dataclasses look it up


def _name(target):
    return ".".join(part for part in (target.module, target.cls, target.attr) if part)


@pytest.mark.parametrize("target", tracing.TARGETS, ids=_name)
def test_target_resolves_to_a_package_binding(target):
    importlib.import_module(target.module)
    found = tracing.bindings(target)
    assert found, f"{target.span}: nothing in the package binds {_name(target)}"
    for owner, name in found:
        assert callable(vars(owner)[name]), (owner, name)
