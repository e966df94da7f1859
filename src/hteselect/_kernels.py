"""Opposite-arm nearest-neighbor search for matching-based effect imputation.

Each arm queries a ``scipy.spatial.cKDTree`` built on the other arm for its
two nearest rows.  Where the second distance is within ``TIE_RTOL`` of the
first, the row is rescanned by exact squared distance so that ties, including
ties at round-off level, break toward the lowest row index.
"""

import numpy as np
from scipy.spatial import cKDTree

from .errors import NumericError

# perfbench/worker.py records this in its environment line
HAS_NUMBA = False

# Relative gap between the two nearest distances below which the tree's
# ordering is not trusted; far above the round-off of a sum of squares.
TIE_RTOL = 1e-9


def nn_opposite_arm(x, treated):
    """Index of each unit's Euclidean nearest neighbor in the opposite arm.

    Args:
        x: (n, k) float feature matrix (standardize before calling).
        treated: (n,) array interpretable as 0/1 arm labels.

    Returns:
        (n,) int64 array of neighbor row indices; among equidistant
        neighbors the lowest row index wins.

    Raises:
        NumericError: a feature value is not finite.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    t = np.asarray(treated).astype(np.int8)
    if x.ndim != 2 or t.shape != (x.shape[0],):
        raise ValueError("x must be (n, k) and treated must be (n,)")
    if not np.isfinite(x).all():
        raise NumericError("non-finite features")
    n = x.shape[0]
    out = np.empty(n, dtype=np.int64)
    idx = np.arange(n)
    for arm in (0, 1):
        rows = idx[t == arm]
        opp = idx[t != arm]
        if opp.size == 0:
            raise ValueError("opposite arm is empty")
        xo = x[opp]
        # with one opposite row the tree pads the second distance with inf
        dist, nn = cKDTree(xo).query(x[rows], k=2)
        out[rows] = opp[nn[:, 0]]
        for i in rows[dist[:, 1] <= dist[:, 0] * (1.0 + TIE_RTOL)]:
            diff = xo - x[i]
            d = np.einsum("ij,ij->i", diff, diff)
            out[i] = opp[int(np.argmin(d))]
    return out
