"""The tree-based nearest-neighbor search must match a brute-force scan."""

import numpy as np
import pytest

from hteselect import _kernels
from hteselect.errors import NumericError


def _brute_force(x, t):
    """Exact squared distances to every opposite-arm row; lowest index wins."""
    out = np.empty(len(t), dtype=np.int64)
    for i in range(len(t)):
        opp = np.flatnonzero(t != t[i])
        diff = x[opp] - x[i]
        out[i] = opp[int(np.argmin(np.einsum("ij,ij->i", diff, diff)))]
    return out


def test_nearest_opposite_neighbor_brute_force():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 4))
    t = rng.random(60) < 0.4
    assert np.array_equal(_kernels.nn_opposite_arm(x, t), _brute_force(x, t))


def test_exact_ties_break_to_lowest_index():
    # duplicated covariate rows across arms: distance zero to several rows
    x = np.array([[1.0], [1.0], [1.0], [2.0]])
    t = np.array([1, 0, 0, 0])
    assert _kernels.nn_opposite_arm(x, t)[0] == 1

    # many equidistant opposite rows, so a two-neighbor query alone can
    # return any pair of them; every unit must still get the lowest index
    x = np.zeros((40, 2))
    x[::2] = [1.0, -1.0]
    t = np.arange(40) % 2
    nn = _kernels.nn_opposite_arm(x, t)
    assert np.all(nn[t == 1] == 0)
    assert np.all(nn[t == 0] == 1)


def test_round_off_near_ties_match_brute_force():
    # thirds are not exact in binary, so mathematically equal distances
    # differ in the last bits and the exact scan decides the winner
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        k = int(rng.integers(1, 5))
        x = np.round(rng.normal(size=(n, k)) * 3) / 3
        t = rng.random(n) < 0.5
        t[:2] = [True, False]
        assert np.array_equal(_kernels.nn_opposite_arm(x, t), _brute_force(x, t)), seed


def test_single_row_opposite_arm():
    x = np.array([[0.0], [5.0], [-3.0], [0.0]])
    t = np.array([0, 0, 1, 0])
    assert _kernels.nn_opposite_arm(x, t).tolist() == [2, 2, 0, 2]


def test_single_class_rejected():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        _kernels.nn_opposite_arm(x, np.ones(4))


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        _kernels.nn_opposite_arm(np.array([[0.0], [np.nan]]), np.array([0, 1]))
