"""Correctness checks on result rows: stored references and invariants.

Every panel member of every workload has stored reference rows
(``reference/<workload>.json``, written by ``make_reference.py`` with
``record_timing=False``).  A row fails when its
``selected``, ``n_selected`` or ``flags`` differ from the reference, or its
``mse`` or ``tau_risk`` differ by more than ``REL_TOL`` relative.  Every row
must also satisfy the invariants: no ``failed:*`` flag, a finite ``mse``,
and within-SCM ranks summing to k(k+1)/2.
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def record(row) -> dict:
    """The fields of a result row that the reference pins."""
    return {
        "scm_id": row.scm_id,
        "method": row.method,
        "n_selected": int(row.n_selected),
        "selected": [int(c) for c in row.selected],
        "mse": float(row.mse),
        "tau_risk": float(row.tau_risk),
        "flags": list(row.flags),
    }


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def differs(row, ref: dict) -> bool:
    """True when ``row`` disagrees with the reference record ``ref``."""
    got = record(row)
    return (
        any(got[k] != ref[k] for k in ("scm_id", "method", "n_selected", "selected", "flags"))
        or not _close(got["mse"], ref["mse"])
        or not _close(got["tau_risk"], ref["tau_risk"])
    )


def violates_invariants(rows) -> list[bool]:
    """Per row: a ``failed:*`` flag, a non-finite mse, or a bad SCM rank sum."""
    bad = [r.failed or not math.isfinite(r.mse) for r in rows]
    by_scm: dict[str, list[int]] = {}
    for idx, r in enumerate(rows):
        by_scm.setdefault(r.scm_id, []).append(idx)
    for members in by_scm.values():
        k = len(members)
        if abs(sum(rows[i].rank for i in members) - k * (k + 1) / 2) > 1e-9:
            for i in members:
                bad[i] = True
    return bad


def failed_rows(rows, reference: list[dict] | None, n_methods: int) -> list[bool]:
    """Per-cell failure verdicts for the rows of one ``run_experiment`` call."""
    bad = violates_invariants(rows)
    if len(rows) != n_methods:
        return [True] * max(n_methods, len(rows))
    if reference is not None:
        if len(reference) != len(rows):
            return [True] * len(rows)
        bad = [b or differs(r, ref) for b, r, ref in zip(bad, rows, reference)]
    return bad


def load_reference(workload: str) -> list[list[dict]]:
    """Reference rows, one list per panel member."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)["panel"]
