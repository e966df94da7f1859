"""Hand-built causal graphs for tests.

A plain module rather than part of ``conftest.py``, so that test modules can
import it by name when ``tests`` and ``perfbench/tests`` run in one pytest
session (each directory has its own ``conftest``).
"""

import numpy as np

from hteselect.scm_gen import CausalGraph


def build_graph(d, edges, t=None, y=None, mediators=(), hte=None, coef=0.5):
    """A CausalGraph from an explicit edge list (constant or mapped coefs)."""
    adj = np.zeros((d, d), dtype=bool)
    coefs = np.zeros((d, d))
    for edge in edges:
        i, j = edge
        adj[i, j] = True
        coefs[i, j] = coef[edge] if isinstance(coef, dict) else coef
    return CausalGraph(
        order=np.arange(d),
        adj=adj,
        coef=coefs,
        t_node=t,
        y_node=y,
        mediators=tuple(mediators),
        hte_parents=dict(hte or {}),
    )
