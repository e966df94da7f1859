"""Shared fixtures: hand-built benchmark graphs; the hypothesis profile."""

import pytest
from hypothesis import settings

from graphs import build_graph

# every property test draws the same examples on every run, and none is
# timed out by hypothesis
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def collider_graph():
    """X -> T, X -> Y, T -> Y, T -> L, Y -> L with X=0, T=1, Y=2, L=3."""
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], t=1, y=2)


@pytest.fixture
def mediator_graph():
    """X -> T, X -> Y, T -> M, M -> Y with X=0, T=1, M=2, Y=3."""
    return build_graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)], t=1, y=3, mediators=(2,))


@pytest.fixture
def multivariable_graph():
    """Ten-node graph with A=0, X=1, T=2, B=3, C=4, D=5, E=6, F=7, Y=8, G=9.

    Edges: A->T, X->T, T->B, X->Y, T->D, C->D, D->E, D->Y, F->Y, Y->G.
    """
    return build_graph(
        10,
        [(0, 2), (1, 2), (2, 3), (1, 8), (2, 5), (4, 5), (5, 6), (5, 8), (7, 8), (8, 9)],
        t=2,
        y=8,
        mediators=(5,),
    )
