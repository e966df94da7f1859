"""The blocked nearest-neighbor search must match a brute-force scan."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hteselect import _kernels
from hteselect.errors import NumericError


def _brute_force(x, t):
    """Exact squared distances to every opposite-arm row of the kernel's
    power-of-two prescaled copy of x; lowest index wins."""
    arm = np.asarray(t) == 1
    x = np.array(x, dtype=np.float64)
    x[arm], x[~arm] = _kernels._prescale(x[arm], x[~arm])
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


@pytest.mark.parametrize(
    "x, t, want",
    [
        # squared differences of the unscaled input overflow to inf
        ([1e300, 1e-300, -1e300, 0.0], [0, 1, 1, 0], [1, 3, 3, 1]),
        # a float32 near-tie at that size, so row 2 is rescanned
        ([1e300, -0.9999999999e300, 0.0], [1, 1, 0], [2, 2, 1]),
    ],
)
def test_rescan_does_not_overflow(x, t, want):
    x, t = np.array(x)[:, None], np.array(t)
    with mock.patch.object(_kernels, "_rescan", wraps=_kernels._rescan) as rescan:
        assert _kernels.nn_opposite_arm(x, t).tolist() == want
    assert rescan.call_count == (len(t) == 3)
    assert _brute_force(x, t).tolist() == want


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 120),
    k=st.integers(1, 11),
    layout=st.sampled_from(["normal", "thirds", "duplicates", "near_duplicates", "float32_duplicates"]),
    offset=st.booleans(),
    scale=st.sampled_from([1.0, 1e20, 1e-30]),
    constant_column=st.booleans(),
    one_row_arm=st.booleans(),
    block=st.sampled_from([None, 1, 7, 64]),
)
def test_matches_brute_force_sweep(
    seed, n, k, layout, offset, scale, constant_column, one_row_arm, block
):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    if layout == "thirds":
        x = np.round(x * 3) / 3
    t = rng.random(n) < 0.5
    t[:2] = [True, False]
    if one_row_arm:
        t[:] = False
        t[rng.integers(n)] = True
    if layout in ("duplicates", "near_duplicates", "float32_duplicates"):
        # copy opposite-arm rows into about half of the control arm, so some
        # units have one or more exactly or nearly equidistant neighbors
        treated, control = np.flatnonzero(t), np.flatnonzero(~t)
        dup = control[rng.random(control.size) < 0.5]
        x[dup] = x[rng.choice(treated, size=dup.size)]
        sign = rng.choice([-1.0, 0.0, 1.0], size=(dup.size, k))
        if layout == "near_duplicates":
            x[dup] *= 1.0 + 1e-15 * sign
        if layout == "float32_duplicates":
            # 1e-9 to 1e-6 relative: float64 separates these, float32 cannot
            x[dup] *= 1.0 + 10.0 ** rng.uniform(-9, -6, size=(dup.size, k)) * sign
    if constant_column:
        x[:, rng.integers(k)] = 0.7
    if offset:
        # |a|^2 and |b|^2 dwarf the distances, so the expanded form cancels
        x += 1e6
    x *= scale  # float32 would overflow at 1e20 and underflow at 1e-30
    with mock.patch.object(_kernels, "BLOCK_ENTRIES", block or _kernels.BLOCK_ENTRIES):
        assert np.array_equal(_kernels.nn_opposite_arm(x, t), _brute_force(x, t))


@pytest.mark.parametrize("scale", [1.0, 1e20, 1e-30, 3e-160, 1e150])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_float32_distances_lie_within_half_the_slack(scale, offset):
    rng = np.random.default_rng(17)
    a = (rng.normal(size=(300, 7)) + offset) * scale
    b = (rng.normal(size=(200, 7)) + offset) * scale
    a[:, 3] = b[:, 3] = 0.5 * scale  # a constant column
    a2, b2 = _kernels._prescale(a, b)
    power = a2[0, 0] / a[0, 0]
    assert np.frexp(power)[0] == 0.5 and np.array_equal(a2, a * power) and np.array_equal(b2, b * power)
    norms = np.einsum("ij,ij->i", a2, a2).max() + np.einsum("ij,ij->i", b2, b2).max()
    assert 1.0 <= norms < 4.0
    lhs, rhs, slack = _kernels._operands(a2, b2)
    got = np.matmul(lhs, rhs).astype(np.float64)
    # float64 rounding here is about 2^-29 of the float32 bound
    exact = np.einsum("ij,ij->i", b2, b2) - 2.0 * (a2 @ b2.T)
    assert np.all(np.abs(got - exact) <= slack / 2)


def test_nan_gaps_are_rescanned():
    # without the prescale, float32 overflows at 1e20: inf - inf gaps are NaN
    # and every such row must fall back to the exact scan
    rng = np.random.default_rng(4)
    x = rng.normal(size=(80, 5)) * 1e20
    t = rng.random(80) < 0.5
    with mock.patch.object(_kernels, "_prescale", lambda a, b: (a, b)), np.errstate(
        over="ignore", invalid="ignore"
    ):
        assert np.array_equal(_kernels.nn_opposite_arm(x, t), _brute_force(x, t))


def test_standardized_gaussian_rescans_at_most_one_percent():
    # the shape of a matching_tall validation split: two arms of about 2100
    # rows, k = 10, standardized
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4200, 10))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    t = rng.random(4200) < 0.5
    with mock.patch.object(_kernels, "_rescan", wraps=_kernels._rescan) as rescan:
        nn = _kernels.nn_opposite_arm(x, t)
    assert rescan.call_count <= 0.01 * len(t)
    assert np.array_equal(nn, _brute_force(x, t))


def test_arms_span_several_blocks_at_the_default_block_size():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1500, 6))
    t = rng.random(1500) < 0.5
    rows_per_block = _kernels.BLOCK_ENTRIES // min(t.sum(), (~t).sum())
    assert max(t.sum(), (~t).sum()) > 2 * rows_per_block
    assert np.array_equal(_kernels.nn_opposite_arm(x, t), _brute_force(x, t))


@pytest.mark.parametrize("labels", [[0, 1, 2, 0], [0, 1, 0.5, 1], [0, 1, -1, 0], [0, 1, np.nan, 1]])
def test_labels_outside_zero_one_rejected(labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        _kernels.nn_opposite_arm(np.arange(4.0)[:, None], np.array(labels))


def test_single_class_rejected():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="opposite arm is empty"):
        _kernels.nn_opposite_arm(x, np.ones(4))
    with pytest.raises(ValueError, match="opposite arm is empty"):
        _kernels.nn_opposite_arm(x, np.zeros(4))


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        _kernels.nn_opposite_arm(np.array([[0.0], [np.nan]]), np.array([0, 1]))
