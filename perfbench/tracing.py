"""Per-layer spans around the public functions of each hteselect module.

Tracing lives entirely in the benchmark: ``traced()`` rebinds every name a
caller holds for a traced function (the defining module, modules that
imported it by name, and the package namespace), records one span per call
and restores the original bindings on exit.  Spans are kept in memory as
``[name, start, end, parent_index]`` records; ``summarize`` turns them into
per-layer calls, inclusive seconds and self seconds.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr``, or ``module.cls.attr`` for a method.

    ``count(tracer, args, kwargs, result)`` adds the target's named counts
    after a call returns; for methods ``args[0]`` is the instance.
    """

    span: str
    module: str
    attr: str
    cls: str | None = None
    count: Callable | None = None


def _count_attempts(tr, args, kwargs, result):
    tr.counts["scm_gen.make_dataset.attempts"] += int(result[2])


def _count_inf(tr, args, kwargs, result):
    tr.counts["hte_fit.score.inf"] += int(result == float("inf"))


def _count_design(tr, args, kwargs, result):
    n, k = np.shape(args[0])
    tr.counts["supervised.fit_ridge.design_elems"] += int(n) * int(k)


def _count_irls(tr, args, kwargs, result):
    objective = args[3] if len(args) > 3 else kwargs["objective_trace"]
    tr.counts["supervised.fit_logistic.irls_iters"] += len(objective)
    tr.counts["supervised.fit_logistic.not_converged"] += int(not result.converged)


def _count_pairs(tr, args, kwargs, result):
    x, treated = args[0], np.asarray(args[1])
    n_treated = int(np.count_nonzero(treated))
    n_control = treated.shape[0] - n_treated
    tr.counts["fit_metrics.nn_opposite_arm.pairs"] += n_treated * n_control * np.shape(x)[1]


def _count_unique(tr, args, kwargs, result):
    tester, i, j = args[0], args[1], args[2]
    cond = args[3] if len(args) > 3 else kwargs.get("cond", ())
    seen = tr.ci_keys.setdefault(tester, set())
    key = (min(i, j), max(i, j), tuple(sorted(cond)))
    if key not in seen:
        seen.add(key)
        tr.counts["structure_fit.ci_test.unique"] += 1


TARGETS = (
    Target("harness.run_experiment", "hteselect.harness", "run_experiment"),
    Target("scm_gen.make_dataset", "hteselect.scm_gen", "make_dataset", count=_count_attempts),
    Target("hte_fit.select_features", "hteselect.hte_fit", "select_features"),
    Target("hte_fit.yardstick", "hteselect.hte_fit", "__init__", cls="SubsetScorer"),
    Target("hte_fit.score", "hteselect.hte_fit", "__call__", cls="SubsetScorer", count=_count_inf),
    Target("estimators.fit_estimator", "hteselect.estimators", "fit_estimator"),
    Target("supervised.fit_ridge", "hteselect.supervised", "fit_ridge", count=_count_design),
    Target("supervised.fit_logistic", "hteselect.supervised", "fit_logistic", count=_count_irls),
    Target("fit_metrics.nn_opposite_arm", "hteselect._kernels", "nn_opposite_arm",
           count=_count_pairs),
    Target("structure_fit.structure_fit", "hteselect.structure_fit", "structure_fit"),
    Target("structure_fit.ci_test", "hteselect.structure_fit", "test", cls="FisherZTester",
           count=_count_unique),
    Target("structure_fit.orient", "hteselect.structure_fit", "orient_reci"),
    Target("structure_fit.orient", "hteselect.structure_fit", "binary_direction_loglik"),
)

SPANS = tuple(dict.fromkeys(t.span for t in TARGETS))
COUNTS = (
    "scm_gen.make_dataset.attempts",
    "hte_fit.score.inf",
    "supervised.fit_ridge.design_elems",
    "supervised.fit_logistic.irls_iters",
    "supervised.fit_logistic.not_converged",
    "fit_metrics.nn_opposite_arm.pairs",
    "structure_fit.ci_test.unique",
)


class Tracer:
    """In-memory span and count store shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ci_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        # IRLS iterations are read from the objective trace fit_logistic can fill
        wants_objective = target.attr == "fit_logistic"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wants_objective and len(args) < 4 and kwargs.get("objective_trace") is None:
                kwargs["objective_trace"] = []
            idx = len(spans)
            spans.append([target.span, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if target.count is not None:
                target.count(self, args, kwargs, result)
            return result

        return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hteselect" or name.startswith("hteselect."))]


def bindings(target: Target) -> list[tuple[object, str]]:
    """Every (owner, name) through which a caller can reach ``target``."""
    owner = sys.modules[target.module]
    if target.cls is not None:
        return [(getattr(owner, target.cls), target.attr)]
    original = getattr(owner, target.attr)
    return [(m, name) for m in _package_modules()
            for name, value in list(vars(m).items()) if value is original]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every binding of every target for the duration of the block."""
    patches: list[tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            found = bindings(target)
            owner, name = found[0]
            original = vars(owner)[name]
            wrapper = tracer.wrap(target, original)
            for owner, name in found:
                patches.append((owner, name, vars(owner)[name]))
                setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts a span only when no ancestor has the same name, so
    a layer that re-enters itself is not counted twice.  Self time is a
    span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            agg["s"] += end - start
    return out
