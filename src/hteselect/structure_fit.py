"""Local causal discovery from the treatment toward the outcome.

The pipeline: a partial-correlation conditional-independence test feeds a
parent-children (PC) set discovery, collider tests identify definite
parents, remaining PC members are oriented pairwise, and a breadth-first
traversal from the treatment collects (node, child) edges; the treatment
and every child found form the forbidden (post-treatment) set.

PC-set discovery runs one loop (``eliminate``) per level for any tester.  The
data tester decides a level from one Schur complement of C[S, S] per set S; a
pair whose verdict rounding could flip (a z near the alpha threshold, or a
near-singular set) is left to the exact test, which inverts that pair's own
correlation sub-matrix.  The d-separation oracle decides each pair alone.

Pairwise orientation uses cubic-regression residual comparison for
continuous pairs.  Pairs involving the binary treatment column are oriented
by a generative likelihood ratio instead: residual comparison carries no
directional information there (predicting a binary variable from a
continuous one is always the easier regression, whichever way the edge
points).  Continuous verdicts only classify a node as a child when the
residual asymmetry is decisive; near-ties default to the parent side,
which never removes a feature.

``structure_fit`` takes its tester and orienter from the caller: the data
ones, or graph-backed oracles, which is how exact-recovery tests run.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np
from scipy.special import erfc, erfcinv

from .errors import ConfigError, ConstantColumn, NumericError
from .scm_gen import CausalGraph, reachable
from .supervised import column_moments, fit_logistic, logistic_loglik

logger = logging.getLogger(__name__)

RECI_TIE_TOL = 1e-6
CHILD_GATE = 0.02  # min relative residual gap to call a node a child
LR_THRESHOLD = 0.5  # log-likelihood margin to call a treatment edge outgoing
# largest precision diagonal, 1/(1 - R^2) of a sub-matrix's worst column, that
# still counts as invertible; beyond it the partial correlation is rounding noise
MAX_PRECISION = 1e8
R_CLIP = 0.9999999  # |partial correlation| cap before the z transform
# conditioning sets per block of FisherZTester.level_verdicts: each of its largest
# temporaries, about six alive at once, holds BLOCK_ENTRIES float64s (128 KB)
BLOCK_ENTRIES = 1 << 14

# ``level_verdicts`` must give each (set S, survivor c) pair the verdict of the
# exact ``test``, which inverts the n x n correlation matrix F of (c, T, S),
# n = |S| + 2.  Both compute r = -P_cT / sqrt(P_cc P_TT) = R_cT / sqrt(R_cc R_TT)
# (P = F^-1, R the Schur complement of S; W = max diag P, ||P||_2 <= n W) from
# F + E for a small E, u = 2^-53:
#   test: LU with partial pivoting solved against I; column j of the
#     inverse is exact for F + E_j, |E_j| <= gamma_3n |L||U| (Higham, Thm 9.4)
#     <= 3.01 n u n 2^(n-1) (|F| <= 1, growth <= 2^(n-1)), ||E_j|| <= 3.01 n^3 2^(n-1) u;
#   level_verdicts: a Cholesky sweep of (S, c, T) stopped after S, exact for
#     |E| <= gamma_(|S|+1) (|G^T||G| + |R|) <= 2.01 (n - 1) u (rows of G have
#     norm <= 1, |R| <= 1), ||E|| <= 2.01 n^2 u;
#   both: FisherZTester.corr (np.corrcoef's steps: two standard-deviation
#     divides) may leave F asymmetric by an ulp, ||E|| <= n u.
# To first order dP = -P E P, so |dP_ij| <= sqrt(P_ii P_jj) ||P|| ||E||, and r
# moves by at most 2 ||P|| ||E|| and each diag P by a relative ||P|| ||E||.
# The two r thus differ by at most 2 n W (3.01 n^3 2^(n-1) + 2.01 n^2 + n) u,
# times SLACK = 4 for second-order terms and for W computed by the
# block-inverse identity, plus 8u for the final divisions and square roots:
# eps below.  A pair is certified only if eps <= 1e-2 and W <= MAX_PRECISION / 2.
# Through the z transform eps moves |z| by at most sqrt(dof) eps / (1 - r_m^2),
# r_m the largest |r| in reach after the clip; the transform's own rounding in
# both paths, and erfc and erfcinv at z* = sqrt(2) erfcinv(alpha), add at most
# 16u (sqrt(dof) + |z| + 4 + z*^2).  A |z| farther than that band from z* has
# the exact test's verdict; every other pair is unsure and goes to ``test``.
SLACK = 4.0
_U = 2.0**-53


@dataclass(frozen=True)
class CiTestConfig:
    """Conditional-independence testing parameters."""

    alpha: float = 0.05
    max_cond: int = 3

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.max_cond < 0:
            raise ConfigError("max_cond must be nonnegative")


class CiTester(Protocol):
    def independent(self, i: int, j: int, cond: tuple[int, ...]) -> bool: ...

    def level_verdicts(self, target: int, survivors: list[int], sets: np.ndarray):
        """(independent, unsure) tables, survivors x sets, of each survivor
        against ``target`` given each row of ``sets`` (survivor positions);
        ``eliminate`` decides an unsure pair it reaches by ``independent``."""


def _fisher_z(r, dof: int):
    """|z| of the Fisher transform of partial correlations r, dof = n - |S| - 3."""
    r = np.clip(r, -R_CLIP, R_CLIP)
    return np.abs(0.5 * np.log((1.0 + r) / (1.0 - r)) * math.sqrt(dof))


class FisherZTester:
    """Partial-correlation independence test on a precomputed correlation
    matrix: ``np.corrcoef`` of the power-of-two-scaled columns, bit for bit,
    its steps run in place on the one scaled copy that it would copy again."""

    def __init__(self, data: np.ndarray, cfg: CiTestConfig):
        data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(data).all():
            raise NumericError("non-finite values in independence-test data")
        self.cfg = cfg
        self.n = data.shape[0]
        # exact power-of-two column scalings, so that no product over- or underflows
        _, exponent = np.frexp(np.abs(data).max(axis=0, initial=0.0))
        dev = np.ldexp(data, -exponent).T
        dev -= dev.mean(axis=1)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.dot(dev, dev.T) * np.true_divide(1, self.n - 1)
            stddev = np.sqrt(np.diag(corr))
            corr /= stddev[:, None]
            corr /= stddev[None, :]
        np.clip(corr, -1, 1, out=corr)
        self.corr = np.nan_to_num(corr, nan=0.0, copy=False)  # NaN rows: constant columns
        np.fill_diagonal(self.corr, 1.0)
        self.z_alpha = math.sqrt(2.0) * float(erfcinv(cfg.alpha))

    def test(self, i: int, j: int, cond: tuple[int, ...] = ()) -> tuple[float, bool]:
        """Two-sided Fisher-z p-value of i and j given ``cond``, from the inverse
        of their correlation sub-matrix, and the independence verdict at level
        alpha.  A singular sub-matrix (not invertible, or a precision diagonal
        above ``MAX_PRECISION``) or an ill-conditioned precision is logged and
        gets p = 0 (dependent)."""
        cond = tuple(cond)
        dof = self._dof(len(cond))
        if i == j:
            return 0.0, False
        r = self.corr[i, j]
        if cond:
            idx = [i, j, *cond]
            try:
                precision = np.linalg.inv(self.corr[np.ix_(idx, idx)])
            except np.linalg.LinAlgError:
                precision = np.full((len(idx), len(idx)), np.nan)
            singular = not np.diagonal(precision).max() <= MAX_PRECISION  # NaN too
            denom = precision[0, 0] * precision[1, 1]
            if singular or not denom > 0:
                logger.warning("%s for (%d, %d) given %s; treating as dependent",
                               "singular conditioning set" if singular
                               else "ill-conditioned precision", i, j, cond)
                return 0.0, False
            r = -precision[0, 1] / np.sqrt(denom)
        p = float(erfc(_fisher_z(np.array([r]), dof) / math.sqrt(2.0))[0])
        return p, p > self.cfg.alpha

    def independent(self, i: int, j: int, cond: tuple[int, ...] = ()) -> bool:
        return self.test(i, j, cond)[1]

    def _dof(self, n_cond: int) -> int:
        if self.n <= n_cond + 3:
            raise NumericError("need n > |cond| + 3 samples for the z transform")
        return self.n - n_cond - 3

    def level_verdicts(self, target: int, survivors: list[int], sets: np.ndarray):
        """``CiTester.level_verdicts``; a pair is unsure where rounding could
        flip its verdict (see ``SLACK``).

        Per block of sets, one Cholesky sweep turns [C[S, S] | C[S, U + T] | I]
        into [L^T | Y | L^-1], C[S, S] = L L^T: R = C[U + T, U + T] - Y^T Y,
        and M = C[S, S]^-1 = L^-T L^-1 gives the precision diagonal through
        P_SS = M + (M B) R2^-1 (M B)^T, R2 = R[(c, T), (c, T)],
        B = C[S, (c, T)].  Entries of a survivor inside its set are not read.
        """
        count, level = sets.shape
        k, n = len(survivors), level + 2
        dof = self._dof(level)
        cols = np.append(np.asarray(survivors, dtype=np.intp), target)
        rounding = 2 * n * (3.01 * n**3 * 2.0 ** (n - 1) + 2.01 * n * n + n) * _U
        indep, unsure = np.empty((2, k, count), dtype=bool)
        step = max(1, BLOCK_ENTRIES // (max(level, 1) * (k + 1 + 2 * level)))
        for start in range(0, count, step):
            nodes = cols[sets[start : start + step]]
            b = nodes.shape[0]
            idx = np.concatenate([nodes, np.broadcast_to(cols, (b, k + 1))], axis=1)
            aug = np.zeros((b, level, 2 * level + k + 1))
            aug[:, :, : level + k + 1] = self.corr[nodes[:, :, None], idx[:, None, :]]
            aug[:, range(level), range(level + k + 1, 2 * level + k + 1)] = 1.0
            ok = np.ones(b, dtype=bool)
            with np.errstate(all="ignore"):
                for m in range(level):
                    ok &= aug[:, m, m] > 0
                    aug[:, m] /= np.sqrt(np.where(ok, aug[:, m, m], 1.0))[:, None]
                    aug[:, m + 1 :] -= aug[:, m, m + 1 : level, None] * aug[:, m, None, :]
                y, linv = aug[:, :, level : level + k + 1], aug[:, :, level + k + 1 :]
                resid = 1.0 - np.einsum("bmu,bmu->bu", y, y)
                r_cc, r_tt = resid[:, :k], resid[:, k:]
                r_ct = self.corr[cols[:k], target] - np.einsum(
                    "bmu,bm->bu", y[:, :, :k], y[:, :, k])
                r = r_ct / np.sqrt(r_cc * r_tt)
                det = 1.0 - r * r
                mb = np.matmul(linv.transpose(0, 2, 1), y)  # M C[S, U + T]
                mb_t = mb[:, :, k:] / np.sqrt(r_tt)[:, None]
                mb_c = mb[:, :, :k] / np.sqrt(r_cc)[:, None] - r[:, None] * mb_t
                mb_c /= np.sqrt(det)[:, None]
                p_ss = (linv * linv).sum(axis=1)[:, :, None] + mb_t * mb_t + mb_c * mb_c
                worst = np.maximum(p_ss.max(axis=1, initial=0.0),
                                   1.0 / (np.minimum(r_cc, r_tt) * det))
                eps = SLACK * worst * rounding + 8.0 * _U
                z = _fisher_z(r, dof)
                r_m = np.minimum(np.abs(r) + eps, R_CLIP)
                band = math.sqrt(dof) * eps / (1.0 - r_m * r_m) + 16.0 * _U * (
                    math.sqrt(dof) + z + 4.0 + self.z_alpha**2)
                regular = (ok[:, None] & (np.minimum(r_cc, r_tt) > 0) & (det > 0)
                           & (worst <= MAX_PRECISION / 2) & (eps <= 1e-2))
                below = regular & (z < self.z_alpha - band)
                above = regular & (z > self.z_alpha + band)
            indep[:, start : start + step] = below.T
            unsure[:, start : start + step] = ~(below | above).T
        return indep, unsure


def d_separated(graph: CausalGraph, i: int, j: int, cond: Iterable[int]) -> bool:
    """Exact d-separation via reachability in the moralized ancestral graph."""
    if i == j:
        return False
    cond = set(cond)
    if i in cond or j in cond:
        return True
    relevant: set[int] = set()
    for node in {i, j} | cond:
        relevant |= graph.ancestors(node)
    neighbors: dict[int, set[int]] = {v: set() for v in relevant}
    for v in relevant:
        parents = [int(p) for p in graph.parents(v) if int(p) in relevant]
        for a, b in combinations([*parents, v], 2):  # moralize: v and its parents, pairwise
            neighbors[a].add(b)
            neighbors[b].add(a)
    return j not in reachable(i, lambda v: neighbors[v] - cond)


class DSepOracle:
    """CI oracle answering from the true graph instead of data."""

    def __init__(self, graph: CausalGraph):
        self.graph = graph

    def independent(self, i: int, j: int, cond: tuple[int, ...] = ()) -> bool:
        return d_separated(self.graph, i, j, cond)

    def level_verdicts(self, target: int, survivors: list[int], sets: np.ndarray):
        """``CiTester.level_verdicts``: nothing independent, every pair unsure."""
        shape = (len(survivors), len(sets))
        return np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)


# ---------------------------------------------------------------------------
# PC-set discovery and collider-based parent identification
# ---------------------------------------------------------------------------


def eliminate(tester: CiTester, target: int, survivors: list[int], level: int) -> list[int]:
    """One PC-simple level: the survivors that stay dependent on ``target``
    given every size-``level`` set of those left when each is tested, in
    order; sets unsure in ``level_verdicts`` go to ``independent`` in order."""
    k = len(survivors)
    count = math.comb(k, level)
    sets = np.fromiter(chain.from_iterable(combinations(range(k), level)),
                       dtype=np.intp, count=count * level).reshape(count, level)
    contains = np.zeros((k, count), dtype=bool)
    contains[sets.T, np.arange(count)] = True
    indep, unsure = tester.level_verdicts(target, survivors, sets)
    alive = np.ones(count, dtype=bool)  # sets holding no removed survivor
    kept = []
    for c in range(k):
        live = alive & ~contains[c]
        if indep[c, live].any() or any(
            tester.independent(survivors[c], target, tuple(survivors[m] for m in sets[s]))
            for s in np.flatnonzero(live & unsure[c])
        ):
            alive &= ~contains[c]
        else:
            kept.append(survivors[c])
    return kept


def pc_simple(
    tester: CiTester, target: int, candidates: Iterable[int], cfg: CiTestConfig
) -> set[int]:
    """Parents-and-children set of ``target`` by leveled elimination.

    Level 0 drops candidates marginally independent of the target; level l
    drops a survivor if it is independent of the target given any size-l
    subset of the other survivors.  Stops once survivors cannot supply a
    conditioning set or l exceeds max_cond.  Each level is one ``eliminate``
    call (PC-simple; Bühlmann, Kalisch & Maathuis, 2010), for any tester.
    """
    survivors = sorted(c for c in set(candidates) if c != target)
    level = 0
    while level <= cfg.max_cond and len(survivors) > level:
        survivors = eliminate(tester, target, survivors, level)
        level += 1
    return set(survivors)


def discover_colliders(
    tester: CiTester, target: int, pc: Iterable[int]
) -> set[int]:
    """Parents of ``target`` found through collider signatures.

    A pair of PC members that is marginally independent but becomes
    dependent given the target must point into the target.
    """
    parents: set[int] = set()
    for a, b in combinations(sorted(pc), 2):
        if tester.independent(a, b, ()) and not tester.independent(a, b, (target,)):
            parents.add(a)
            parents.add(b)
    return parents


# ---------------------------------------------------------------------------
# pairwise orientation
# ---------------------------------------------------------------------------


class StandardColumn:
    """A column standardized by ``column_moments`` (by 1 if constant), and its
    cubic basis [1, z, z², z³] on first use.  ``z**3`` is libm ``pow``, most of
    a basis's cost, and ``z * z * z`` would round differently: reuse, not recast."""

    def __init__(self, column: np.ndarray):
        c = np.asarray(column, float)
        mu, self.scale = column_moments(c)
        self.z = (c - mu) / (self.scale or 1.0)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return np.column_stack([np.ones_like(self.z), self.z, self.z**2, self.z**3])


def _cubic_residual_mse(design: np.ndarray, effect: np.ndarray) -> float:
    gram = design.T @ design + 1e-8 * np.eye(4)
    w = np.linalg.solve(gram, design.T @ effect)
    resid = effect - design @ w
    return float(np.mean(resid**2))


def orient_reci(a: StandardColumn, b: StandardColumn) -> float:
    """Signed RECI score of standardized columns ``a`` and ``b``: positive
    means ``b`` is the effect (its cubic regression on ``a`` leaves the
    smaller mean squared residual, ``err_ab``).  0.0 when ``err_ab`` and
    ``err_ba`` differ by at most ``RECI_TIE_TOL``, else the relative gap
    ``(err_ba - err_ab) / max(err_ab, err_ba)``; swapping the arguments
    negates it exactly.

    Raises:
        ConstantColumn: either column has zero variance.
    """
    if a.scale == 0.0 or b.scale == 0.0:
        raise ConstantColumn("both columns must be non-constant")
    err_ab = _cubic_residual_mse(a.basis, b.z)
    err_ba = _cubic_residual_mse(b.basis, a.z)
    diff = err_ba - err_ab
    if abs(diff) <= RECI_TIE_TOL:
        return 0.0
    return diff / max(err_ab, err_ba, 1e-300)


def binary_direction_loglik(binary: np.ndarray, cont: StandardColumn) -> float:
    """Log-likelihood margin for 'binary causes continuous'.

    Compares two four-parameter generative models of the pair: Bernoulli
    plus Gaussian arms with pooled variance, versus a Gaussian margin with a
    logistic conditional.  Positive values favor the binary variable as the
    cause.  ``cont`` is the standardized continuous column, so that its
    units move nothing.

    Raises:
        DegenerateArms: a value of ``binary`` is not 0 or 1, or one is missing.
    """
    b = np.asarray(binary, float)
    c = cont.z
    model = fit_logistic(c[:, None], b, lam=1e-3)
    n = len(b)
    p = float(b.mean())
    ll_bern = float(b.sum()) * math.log(p) + float(n - b.sum()) * math.log(1.0 - p)
    resid = c - np.where(b == 1, c[b == 1].mean(), c[b == 0].mean())
    var_pool = max(float(resid.var()), 1e-12)
    ll_arms = -0.5 * n * math.log(2 * math.pi * var_pool) - 0.5 * n
    ll_forward = ll_bern + ll_arms

    var_c = max(float(c.var()), 1e-12)
    ll_margin = -0.5 * n * math.log(2 * math.pi * var_c) - 0.5 * n
    ll_logistic = logistic_loglik(model.weights[0] + c * model.weights[1], b)
    return ll_forward - (ll_margin + ll_logistic)


class Orienter(Protocol):
    """Answers whether PC member ``member`` of ``target`` is its child."""

    def is_child(self, target: int, member: int) -> bool: ...


class GraphOrienter:
    """True-direction oracle used alongside the d-separation oracle."""

    def __init__(self, graph: CausalGraph):
        self.graph = graph

    def is_child(self, target: int, member: int) -> bool:
        # a non-adjacent member (leakage) is a parent: never treat it as a descendant
        return bool(self.graph.adj[target, member])


class DataOrienter:
    """Data-driven parent/child verdicts for unresolved PC members.

    A treatment edge is outgoing when the generative likelihood margin
    exceeds ``LR_THRESHOLD``; any other member is a child when its signed
    RECI score from the target reaches ``CHILD_GATE``, so ties and near-ties
    are parents.  ``column(k)`` standardizes the 1-d ``columns[k]``, read in
    place, and builds its cubic basis, at most once per orienter.
    """

    def __init__(self, columns: Sequence[np.ndarray], binary_col: int):
        self.columns = columns
        self.binary_col = binary_col
        self.column = functools.cache(lambda col: StandardColumn(columns[col]))

    def is_child(self, target: int, member: int) -> bool:
        if self.binary_col in (target, member):
            other = member if target == self.binary_col else target
            margin = binary_direction_loglik(self.columns[self.binary_col], self.column(other))
            return (margin > LR_THRESHOLD) == (target == self.binary_col)
        return orient_reci(self.column(target), self.column(member)) >= CHILD_GATE


def local_structure(
    tester: CiTester,
    orienter: Orienter,
    target: int,
    candidates: Iterable[int],
    cfg: CiTestConfig,
) -> tuple[set[int], set[int]]:
    """(parents, children) of ``target`` among ``candidates``.

    Collider discovery marks definite parents; every unmarked PC member is
    classified by the orienter.
    """
    pc = pc_simple(tester, target, candidates, cfg)
    parents = discover_colliders(tester, target, pc)
    children: set[int] = set()
    for member in sorted(pc - parents):
        if orienter.is_child(target, member):
            children.add(member)
        else:
            parents.add(member)
    return parents, children


# ---------------------------------------------------------------------------
# partial-structure traversal
# ---------------------------------------------------------------------------


class StructureFitResult(NamedTuple):
    selected: tuple[int, ...]
    forbidden: frozenset
    edges: tuple[tuple[int, int], ...]  # (node, child), sorted

    def to_dict(self) -> dict:
        return {
            "forbidden": sorted(self.forbidden),
            "edges": [list(e) for e in self.edges],
        }


def structure_fit(
    tester: CiTester,
    orienter: Orienter,
    t_col: int,
    y_col: int,
    candidates: Iterable[int],
    cfg: CiTestConfig,
) -> StructureFitResult:
    """Remove discovered treatment descendants from the candidate columns.

    The caller supplies the independence tester and the orienter: the data
    ones (``FisherZTester``, ``DataOrienter``) or the graph oracles.  Local
    structures are learned breadth-first from the treatment's children
    toward the outcome.  The seen-set ``dn`` starts as the outcome's children
    plus the treatment, and a node is queued only once and only if it is not
    in ``dn``, so traversal never continues past the outcome's children.
    Each (node, child) edge of a visited node's local structure starts at
    the treatment or at a node an earlier edge reached, so the treatment's
    descendants along them are the treatment plus every child found: the
    forbidden set.  The returned columns are the candidates minus it.
    """
    candidates = sorted(set(int(c) for c in candidates) - {t_col, y_col})
    scope = set(candidates) | {t_col, y_col}
    local = functools.cache(
        lambda node: local_structure(tester, orienter, node, scope - {node}, cfg))

    dn = local(y_col)[1] | {t_col}
    forbidden, edges = {t_col}, []
    frontier = deque([t_col])  # the treatment first, so its children form the queue
    while frontier:
        node = frontier.popleft()
        for child in sorted(local(node)[1]):
            edges.append((node, child))
            forbidden.add(child)
            if child not in dn:
                dn.add(child)
                frontier.append(child)

    selected = tuple(c for c in candidates if c not in forbidden)
    return StructureFitResult(selected, frozenset(forbidden), tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# oracle adjustment sets on the true graph
# ---------------------------------------------------------------------------

ADJUSTMENT_MODES = ("Parents", "Valid", "OSet")


class AdjustmentResult(NamedTuple):
    nodes: frozenset
    empty_causal_path: bool


def oracle_adjustment(graph: CausalGraph, mode: str) -> AdjustmentResult:
    """Ground-truth adjustment sets read off the generating graph.

    Parents: parents of the treatment (a valid set for a single treatment).
    Valid: every feature node except strict descendants of the treatment.
    OSet: parents of the nodes on directed treatment-outcome paths, minus
    the forbidden descendants and the treatment itself.
    """
    if graph.t_node is None or graph.y_node is None:
        raise ValueError("graph needs assigned roles")
    t, y = graph.t_node, graph.y_node
    if mode == "Parents":
        return AdjustmentResult(frozenset(int(p) for p in graph.parents(t)), False)
    if mode == "Valid":  # t is no feature node, so removing it with de(t) is a no-op
        return AdjustmentResult(frozenset(graph.feature_nodes()) - graph.descendants(t), False)
    if mode == "OSet":
        de_t = graph.descendants(t)  # includes t
        causal = (de_t - {t}) & graph.ancestors(y)
        if not causal:
            return AdjustmentResult(frozenset(), True)
        parents = {int(p) for node in causal for p in graph.parents(node)}
        return AdjustmentResult(frozenset(parents - de_t), False)
    raise ValueError(f"unknown adjustment mode {mode!r}; use one of {ADJUSTMENT_MODES}")
