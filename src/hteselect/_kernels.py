"""Opposite-arm nearest-neighbor search for matching-based effect imputation.

A query row ``a`` ranks the opposite-arm rows ``b`` by the expanded squared
distance ``|b|^2 - 2 a.b`` (``|a|^2`` is the same for every ``b``), computed
in float32 by one matrix product per block of query rows, with ``|b|^2``
folded in as an extra column: ``[a, 1] @ [-2 b ; |b|^2]^T``.  Both arms are
first scaled by one power of two, which is exact, so that
``max |a|^2 + max |b|^2`` lies in [1, 4): the float32 casts and products can
then neither overflow nor lose more than a negligible absolute amount to
underflow.  Where a row's two smallest float32 distances lie within their
rounding bound (``SLACK`` below), or their gap is NaN, the row is rescanned
by exact float64 squared distance on the prescaled float64 copies, so the
result equals an exact float64 scan of those copies, which cannot overflow:
ties, including ties at round-off level, break toward the lowest row index.
"""

import numpy as np

from .errors import NumericError, check_arms

# perfbench/worker.py records this in its environment line
HAS_NUMBA = False

# Distances held per block of query rows: a 1 MB float32 buffer, reused per arm.
BLOCK_ENTRIES = 1 << 18

# A row is rescanned unless its two smallest float32 distances differ by more
# than SLACK (k + 3) eps (A + B), with eps = np.finfo(np.float32).eps = 2u and
# A = max |a|^2, B = max |b|^2 after the prescale (1 <= A + B < 4).  The
# error of one float32 distance against the exact |b|^2 - 2 a.b is at most
#   casts of a and b:      (2u + u^2) 2|a||b|             <= (2u + u^2)(A + B)
#   |b|^2 (float64, k 2^-53 relative) cast to float32:    (u + k 2^-53) B
#   gemm of length k + 1:  gamma_{k+1} (2|a32||b32| + |b|^2_32)
#                                                      <= 2.01 gamma_{k+1} (A + B)
# (2|a||b| <= A + B; gamma_n = n u / (1 - n u) <= 1.07 n u for n <= 2^20, in
# any summation order), in all at most 1.08 (k + 3) eps (A + B).  Two
# distances of a row can only swap order when their float32 gap is at most
# twice that.  The exact float64 scan adds 2 gamma^64_{k+2} 2(A + B), the
# float64 subtraction of the two float32 values a 2^-53 relative error, and
# float32 underflow at most about 4 (k + 1) 2^-150 absolutely, each below
# 2^-28 (k + 3) eps (A + B) since A + B >= 1.  So a gap above
# 2.2 (k + 3) eps (A + B) certifies the float32 argmin as the float64 scan's
# unique minimum; SLACK = 4 leaves a margin of 1.8.
SLACK = 4.0


def nn_opposite_arm(x, treated):
    """Index of each unit's Euclidean nearest neighbor in the opposite arm.

    Args:
        x: (n, k) float feature matrix (standardize before calling).
        treated: (n,) array of 0/1 arm labels.

    Returns:
        (n,) int64 array of neighbor row indices; among equidistant
        neighbors the lowest row index wins.

    Raises:
        ValueError: ``x`` is not (n, k) or ``treated`` is not (n,).
        DegenerateArms: a label is not 0 or 1, or an arm is empty.
        NumericError: a feature value is not finite.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    t = np.asarray(treated)
    if x.ndim != 2 or t.shape != (x.shape[0],):
        raise ValueError("x must be (n, k) and treated must be (n,)")
    check_arms(t, "nearest-neighbor matching")
    if not np.isfinite(x).all():
        raise NumericError("non-finite features")
    arm1 = t == 1
    out = np.empty(x.shape[0], dtype=np.int64)
    for rows, opp in ((~arm1, arm1), (arm1, ~arm1)):
        rows, opp = np.flatnonzero(rows), np.flatnonzero(opp)
        out[rows] = opp[_nearest(x[rows], x[opp])]
    return out


def _sq(x):
    return np.einsum("ij,ij->i", x, x)


def _prescale(a, b):
    """``a`` and ``b`` times one power of two, so that
    max |a|^2 + max |b|^2 lies in [1, 4)."""
    e = np.frexp(max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)))[1]
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)  # every entry is now below 1
    s = (2 - np.frexp(_sq(a).max() + _sq(b).max())[1]) // 2
    return np.ldexp(a, s, out=a), np.ldexp(b, s, out=b)


def _operands(a, b):
    """float32 ``[a, 1]`` and ``[-2 b ; |b|^2]^T`` of prescaled arms, whose
    product holds the expanded distances, and the rescan slack."""
    m, k = a.shape
    bb = _sq(b)
    slack = SLACK * (k + 3) * float(np.finfo(np.float32).eps) * (_sq(a).max() + bb.max())
    lhs = np.ones((m, k + 1), dtype=np.float32)
    lhs[:, :k] = a
    rhs = np.empty((k + 1, b.shape[0]), dtype=np.float32)
    np.multiply(b.T, -2.0, out=rhs[:k], casting="same_kind")  # scaling by -2 is exact
    rhs[k] = bb
    return lhs, rhs, slack


def _nearest(a, b):
    """Row of ``b`` nearest to each row of ``a``; the lowest row on ties."""
    a, b = _prescale(a, b)
    lhs, rhs, slack = _operands(a, b)
    m, n = a.shape[0], b.shape[0]
    step = max(1, BLOCK_ENTRIES // n)
    buf = np.empty((min(step, m), n), dtype=np.float32)
    nn = np.empty(m, dtype=np.int64)
    for start in range(0, m, step):
        block = lhs[start : start + step]
        dist = buf[: block.shape[0]]
        np.matmul(block, rhs, out=dist)
        best = dist.argmin(axis=1)
        rows = np.arange(block.shape[0])
        first = dist[rows, best].astype(np.float64)
        dist[rows, best] = np.inf  # the second smallest is now the minimum
        nn[start : start + step] = best
        # compared in float64; written so that a NaN gap is rescanned too
        for i in np.flatnonzero(~(dist.min(axis=1) - first > slack)):
            nn[start + i] = _rescan(a[start + i], b)
    return nn


def _rescan(row, b):
    """Row of ``b`` at the least exact float64 squared distance from ``row``."""
    return np.argmin(_sq(b - row))
