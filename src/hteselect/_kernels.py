"""Opposite-arm nearest-neighbor search for matching-based effect imputation.

A query row ``a`` ranks the opposite-arm rows ``b`` by the expanded squared
distance ``|b|^2 - 2 a.b`` (``|a|^2`` is the same for every ``b``), computed
by one matrix product per block of query rows.  Where a row's two smallest
expanded distances lie within their rounding bound, the row is rescanned by
exact squared distance, so the result equals an exact scan: ties, including
ties at round-off level, break toward the lowest row index.
"""

import numpy as np

from .errors import NumericError

# perfbench/worker.py records this in its environment line
HAS_NUMBA = False

# Distances held per block of query rows: a 1 MB buffer, reused per arm.
BLOCK_ENTRIES = 1 << 17

# A row is rescanned when its two smallest expanded distances differ by at
# most SLACK (k + 2) eps (max |a|^2 + max |b|^2): twice the worst-case
# rounding error of the matrix product and of the exact scan together.
SLACK = 8.0


def nn_opposite_arm(x, treated):
    """Index of each unit's Euclidean nearest neighbor in the opposite arm.

    Args:
        x: (n, k) float feature matrix (standardize before calling).
        treated: (n,) array of 0/1 arm labels.

    Returns:
        (n,) int64 array of neighbor row indices; among equidistant
        neighbors the lowest row index wins.

    Raises:
        ValueError: a label is not 0 or 1, or an arm is empty.
        NumericError: a feature value is not finite.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    t = np.asarray(treated)
    if x.ndim != 2 or t.shape != (x.shape[0],):
        raise ValueError("x must be (n, k) and treated must be (n,)")
    if not ((t == 0) | (t == 1)).all():
        raise ValueError("treated labels must be 0 or 1")
    if not np.isfinite(x).all():
        raise NumericError("non-finite features")
    arm1 = t == 1
    if arm1.all() or not arm1.any():
        raise ValueError("opposite arm is empty")
    out = np.empty(x.shape[0], dtype=np.int64)
    for rows, opp in ((~arm1, arm1), (arm1, ~arm1)):
        rows, opp = np.flatnonzero(rows), np.flatnonzero(opp)
        out[rows] = opp[_nearest(x[rows], x[opp])]
    return out


def _nearest(a, b):
    """Row of ``b`` nearest to each row of ``a``; the lowest row on ties."""
    m, k = a.shape
    bb = np.einsum("ij,ij->i", b, b)
    norms = np.einsum("ij,ij->i", a, a).max() + bb.max()
    slack = SLACK * (k + 2) * np.finfo(np.float64).eps * norms
    b2t = (-2.0 * b).T  # scaling by -2 is exact
    step = max(1, BLOCK_ENTRIES // b.shape[0])
    buf = np.empty((min(step, m), b.shape[0]))
    nn = np.empty(m, dtype=np.int64)
    for start in range(0, m, step):
        block = a[start : start + step]
        dist = buf[: block.shape[0]]
        np.matmul(block, b2t, out=dist)
        dist += bb
        best = dist.argmin(axis=1)
        rows = np.arange(block.shape[0])
        first = dist[rows, best]
        dist[rows, best] = np.inf  # the second smallest is now the minimum
        nn[start : start + step] = best
        close = dist.min(axis=1) - first <= slack
        for i in np.flatnonzero(close):
            diff = b - block[i]
            nn[start + i] = np.argmin(np.einsum("ij,ij->i", diff, diff))
    return nn
