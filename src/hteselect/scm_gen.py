"""Random linear-Gaussian SCMs with controlled confounding, mediation and
effect heterogeneity, plus observational data and counterfactual ground truth.

Graphs are sampled over a fixed causal order 0..d-1: each forward pair gets
an edge with probability ``p_e`` and a Unif(-1, 1) coefficient.  Treatment
and outcome roles are chosen among node pairs connected by a directed path
with exactly ``m`` intermediate hops, filtered by the confounding flag.
The treatment node is binarized as Bernoulli(logistic(latent)) so that
propensities stay strictly inside (0, 1), and the binary value propagates
downstream.  Ground-truth unit effects come from simulating both treatment
arms on identical noise.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, InfeasibleSpec, NoValidPair, NotPositiveDefinite, check_arms

MAX_GRAPH_RETRIES = 100

# Reject noise covariances whose smallest eigenvalue (1 - sigma) falls below
# d * MIN_EIG_PER_DIM: accumulated rounding in the symmetric-root transform
# grows with dimension, so the guard tightens as d grows.
MIN_EIG_PER_DIM = 1e-4


@dataclass(frozen=True)
class ScmSpec:
    """Generator parameters for one SCM family member.

    Attributes:
        d: node count (>= 3).
        p_e: edge probability for each forward pair, in [0, 1].
        sigma: off-diagonal noise covariance, in [0, 1).
        rho: noise magnitude multiplier applied at non-source nodes, (0, 1].
        gamma: True to require a backdoor path between treatment and outcome,
            False to forbid one.
        m: mediator chain length in {0, 1, 2}.
        p_h: number of heterogeneity-inducing non-mediating parents, {0, 1, 2}.
        m_p: whether mediators also receive interaction terms from their own
            non-mediating parents.
        n: sample size.
        seed: 64-bit RNG seed.
    """

    d: int
    p_e: float
    sigma: float
    rho: float
    gamma: bool
    m: int
    p_h: int
    m_p: bool
    n: int
    seed: int

    def __post_init__(self):
        for name, low in (("d", 3), ("m", 0), ("p_h", 0), ("n", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not 0.0 <= self.p_e <= 1.0:
            raise ConfigError("p_e must lie in [0, 1]")
        if not 0.0 <= self.sigma < 1.0:
            raise ConfigError("sigma must lie in [0, 1)")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError("rho must lie in (0, 1]")
        if self.m + 2 > self.d:
            raise ConfigError("need m + 2 <= d to place the mediator chain")


# what ``typed`` asks for, by kind; any other range is of node indices
_WANTED = {float: "a finite number", int: "an integer", bool: "true or false",
           str: "a string", list: "a list", dict: "an object", range(2): "0 or 1"}


def typed(where: str, value, kind):
    """``value``, the JSON value named by ``where``, if it is of ``kind``, else
    ConfigError.  One rule for every input file: a number is never a string,
    bool or null, and an int is also a float (returned as one); a ``range``
    kind wants an int in it, and ``[kind]`` a list of ``kind`` values."""
    if isinstance(kind, list):
        return [typed(where, v, kind[0]) for v in typed(where, value, list)]
    if isinstance(kind, range):
        fits = type(value) is int and value in kind
    elif kind is float:
        fits = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        fits = type(value) is kind
    if fits:
        return float(value) if kind is float else value
    wanted = _WANTED.get(kind) or f"a node in range({kind.stop})"
    if kind in (list, dict) or isinstance(value, (list, dict)):  # too long to quote
        raise ConfigError(f"{where} must be {wanted}, got {type(value).__name__}")
    raise ConfigError(f"{where} holds {value!r}, not {wanted}")


def _keyed(where: str, values, known, required=()) -> dict:
    """``values`` if it is an object of ``known`` keys, ``required`` among them."""
    unknown = sorted(set(typed(where, values, dict)) - set(known))
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}")
    missing = [key for key in required if key not in values]
    if missing:
        raise ConfigError(f"{where} lacks keys {missing}")
    return values


def spec_from_json(where: str, values, listed: bool = False, cls=ScmSpec):
    """``cls`` (a spec dataclass) from the JSON object ``values``, each value
    ``typed`` as its field; with ``listed``, the object of lists of such
    values that a benchmark ``grid`` holds, for any of the fields."""
    kinds = typing.get_type_hints(cls)
    required = [f.name for f in fields(cls) if f.default is MISSING and not listed]
    checked = {key: typed(f"{where} '{key}'", value, [kinds[key]] if listed else kinds[key])
               for key, value in _keyed(where, values, kinds, required).items()}
    return checked if listed else cls(**checked)


def json_object(where: str, text: str, known, required=()) -> dict:
    """The JSON object in ``text``, checked by ``_keyed``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from None
    return _keyed(where, payload, known, required)


def csv_records(where: str, text: str):
    """(line, cells) of each CSV record in ``text``; ConfigError naming
    ``where`` and the line where the csv module rejects the text."""
    reader = csv.reader(io.StringIO(text))
    try:
        for cells in reader:
            yield reader.line_num, cells
    except csv.Error as exc:
        raise ConfigError(f"{where} line {reader.line_num}: {exc}") from None


def reachable(start: int, step: Callable[[int], Iterable[int]]) -> set[int]:
    """Every node reachable from ``start`` by repeated ``step``, start included.

    ``step(v)`` lists the nodes one move away from v.  It should return
    Python ints (e.g. ``np.flatnonzero(row).tolist()``): numpy scalars
    would slow every set lookup in this loop.
    """
    seen = {start}
    stack = [start]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass
class CausalGraph:
    """A sampled DAG with edge coefficients and (optionally) assigned roles.

    ``adj[i, j]`` is True only for i < j in the causal order, so acyclicity
    holds by construction.  ``hte_parents`` maps an interaction-carrying node
    (the outcome, and each mediator when requested) to the sorted tuple of
    its non-mediating interaction parents.
    """

    order: np.ndarray
    adj: np.ndarray
    coef: np.ndarray
    t_node: int | None = None
    y_node: int | None = None
    mediators: tuple[int, ...] = ()
    hte_parents: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.adj.shape[0]

    def parents(self, node: int) -> np.ndarray:
        return np.flatnonzero(self.adj[:, node])

    def descendants(self, node: int) -> set[int]:
        """Nodes reachable from ``node`` along directed edges, ``node`` included."""
        return reachable(node, lambda v: np.flatnonzero(self.adj[v]).tolist())

    def ancestors(self, node: int) -> set[int]:
        return reachable(node, lambda v: np.flatnonzero(self.adj[:, v]).tolist())

    def feature_nodes(self) -> list[int]:
        """All nodes except treatment and outcome, in node-id order."""
        if self.t_node is None or self.y_node is None:
            raise ValueError("roles not assigned")
        return [i for i in range(self.d) if i not in (self.t_node, self.y_node)]


@dataclass
class Dataset:
    """Observational data plus counterfactual ground truth.

    ``x`` holds every node except treatment and outcome, in node-id order
    (column j is node ``CausalGraph.feature_nodes()[j]``), and
    ``post_treatment_mask[j]`` is True iff that node is a strict descendant
    of the treatment.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    tau: np.ndarray
    post_treatment_mask: np.ndarray

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


def sample_graph(spec: ScmSpec, rng: np.random.Generator) -> CausalGraph:
    """Sample adjacency and coefficients over the fixed causal order."""
    d = spec.d
    upper = np.triu(np.ones((d, d), dtype=bool), k=1)
    adj = upper & (rng.random((d, d)) < spec.p_e)
    coef = np.where(adj, rng.uniform(-1.0, 1.0, size=(d, d)), 0.0)
    # Unif(-1, 1) can in principle return 0.0; keep coef nonzero iff adj.
    degenerate = adj & (coef == 0.0)
    while degenerate.any():
        coef[degenerate] = rng.uniform(-1.0, 1.0, size=int(degenerate.sum()))
        degenerate = adj & (coef == 0.0)
    return CausalGraph(order=np.arange(d), adj=adj, coef=coef)


def _strict_closure(adj: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``reach[u, v]`` iff a directed path of one or more edges leads u to v.

    Every edge of ``adj`` must run forward in the causal ``order``, so a
    node's row is final once its children's rows are: one pass of row ORs
    in reverse order.
    """
    reach = adj.copy()
    for v in order[::-1].tolist():
        kids = adj[v]
        if kids.any():
            reach[v] |= reach[kids].any(axis=0)
    return reach


def backdoor_rows(graph: CausalGraph) -> np.ndarray:
    """``rows[t, y]`` iff some node has directed paths into both t and y, the
    one to y avoiding t (common-ancestor criterion; equivalent to an open
    backdoor path from t to y in a DAG when nothing is conditioned on).

    Such a path ends in an edge p -> y, p != t, from an ancestor of t
    (``anc[t, p]``) or from a node that one reaches avoiding t
    (``rows[t, p]``), so one pass in causal order fills every column; p = t
    adds nothing, as ``anc[t, t]`` and ``rows[t, t]`` are False.
    """
    anc = _strict_closure(graph.adj, graph.order).T
    rows = np.zeros_like(anc)
    for y in graph.order.tolist():
        parents = graph.adj[:, y]
        rows[:, y] = (anc[:, parents] | rows[:, parents]).any(axis=1)
        rows[y, y] = False
    return rows


def hop_powers(adj: np.ndarray, m: int) -> list[np.ndarray]:
    """``powers[h][u, v]`` iff a directed path of h edges leads u to v, h <= m + 1."""
    powers = [np.eye(len(adj), dtype=bool)]
    for _ in range(m + 1):
        powers.append(powers[-1] @ adj)
    return powers


def lowest_chain(adj: np.ndarray, t: int, y: int, m: int) -> list[int]:
    """The lexicographically smallest directed path t -> ... -> y with m intermediates
    (one must exist): each hop takes the lowest child reaching y in the hops left."""
    chain = [t]
    for left in hop_powers(adj, m)[-2::-1]:  # reach in exactly m, ..., 0 hops
        chain.append(int(np.flatnonzero(adj[chain[-1]] & left[:, y])[0]))
    return chain


def role_candidates(graph: CausalGraph, spec: ScmSpec) -> list[tuple[int, int]]:
    """Row-major (t, y) pairs with an exact-m-hop path matching the confounding flag."""
    joined = hop_powers(graph.adj, spec.m)[-1] & (backdoor_rows(graph) == spec.gamma)
    return [(t, y) for t, y in np.argwhere(joined).tolist()]


def select_roles(
    graph: CausalGraph, spec: ScmSpec, rng: np.random.Generator
) -> CausalGraph:
    """Assign treatment/outcome roles, the mediator chain and interaction parents.

    Raises:
        NoValidPair: no (t, y) pair satisfies the (gamma, m) requirement.
    """
    pairs = role_candidates(graph, spec)
    if not pairs:
        raise NoValidPair(f"no pair with m={spec.m}, gamma={spec.gamma}")
    t, y = pairs[int(rng.integers(len(pairs)))]
    chain = lowest_chain(graph.adj, t, y, spec.m)
    mediators = tuple(chain[1:-1])

    hte: dict[int, tuple[int, ...]] = {}
    if spec.p_h > 0:
        chain_set = set(chain)

        def pick(node: int) -> tuple[int, ...]:
            # off the chain, so never the node's own chain predecessor
            eligible = sorted(int(p) for p in graph.parents(node) if p not in chain_set)
            take = min(spec.p_h, len(eligible))
            if take == 0:
                return ()
            chosen = rng.choice(np.array(eligible), size=take, replace=False)
            return tuple(sorted(int(c) for c in chosen))

        for node in (y, *mediators) if spec.m_p else (y,):
            if picked := pick(node):
                hte[node] = picked

    return replace(graph, t_node=t, y_node=y, mediators=mediators, hte_parents=hte)


def sample_or_retry(
    spec: ScmSpec, rng: np.random.Generator
) -> tuple[CausalGraph, int]:
    """Resample graphs until roles can be assigned, up to MAX_GRAPH_RETRIES.

    Returns:
        (graph-with-roles, number of attempts used).

    Raises:
        InfeasibleSpec: every attempt failed.
    """
    for attempt in range(1, MAX_GRAPH_RETRIES + 1):
        graph = sample_graph(spec, rng)
        try:
            return select_roles(graph, spec, rng), attempt
        except NoValidPair:
            continue
    raise InfeasibleSpec(
        f"no valid (t, y) pair in {MAX_GRAPH_RETRIES} sampled graphs "
        f"for gamma={spec.gamma}, m={spec.m}, p_e={spec.p_e}"
    )


def sample_noise(spec: ScmSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows of N(0, Sigma) noise, Sigma_ii = 1 and Sigma_ij = sigma.

    Realized through the symmetric eigen-root of Sigma so a near-singular
    covariance fails loudly instead of silently losing precision.

    Raises:
        NotPositiveDefinite: smallest eigenvalue 1 - sigma is at or below the
            dimension-dependent floor d * MIN_EIG_PER_DIM.
    """
    d, sigma = spec.d, spec.sigma
    min_eig = 1.0 - sigma
    floor = d * MIN_EIG_PER_DIM
    if min_eig <= floor:
        max_eig = 1.0 + (d - 1) * sigma
        raise NotPositiveDefinite(
            f"noise covariance too ill-conditioned: min eigenvalue {min_eig:.3g} "
            f"<= {floor:.3g} (d={d}), condition number {max_eig / max(min_eig, 1e-300):.3g}"
        )
    cov = np.full((d, d), sigma)
    np.fill_diagonal(cov, 1.0)
    eigvals, eigvecs = np.linalg.eigh(cov)
    root = (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.T
    return rng.standard_normal((spec.n, d)) @ root


def simulate_arms(graph: CausalGraph, spec: ScmSpec, noise: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The value matrices under do(T=1) and do(T=0) on the shared ``noise``,
    the treatment's latent (pre-forcing) linear value, the same in both, and
    ``post``, the boolean node mask of T's strict descendants.

    One pass over the causal order marks a node post-treatment iff T or a
    marked node is among its parents; an unmarked node has one value in both
    arms, computed once.  A node listed in ``hte_parents`` adds its chain
    predecessor times the sum of its interaction parents.  The arms are
    column-major, so parents gather from contiguous columns.
    """
    n = noise.shape[0]
    arm1, arm0 = np.zeros((n, graph.d), order="F"), np.zeros((n, graph.d), order="F")
    post = np.zeros(graph.d, dtype=bool)
    chain = (graph.t_node, *graph.mediators, graph.y_node)
    chain_pred = dict(zip(chain[1:], chain))
    for i in graph.order.tolist():
        parents = graph.parents(i)
        post[i] = graph.adj[graph.t_node, i] or post[parents].any()
        for values in (arm1, arm0) if post[i] else (arm1,):
            val = (values[:, parents] @ graph.coef[parents, i] + spec.rho * noise[:, i]
                   if parents.size else noise[:, i])
            interaction = graph.hte_parents.get(i)
            if interaction:
                val = val + values[:, chain_pred[i]] * values[:, list(interaction)].sum(axis=1)
            values[:, i] = val
        if i == graph.t_node:
            latent_t = arm1[:, i].copy()
            arm1[:, i], arm0[:, i] = 1.0, 0.0
        elif not post[i]:
            arm0[:, i] = arm1[:, i]
    return arm1, arm0, latent_t, post


def generate(graph: CausalGraph, spec: ScmSpec, rng: np.random.Generator) -> Dataset:
    """Generate an observational dataset with ground-truth unit effects.

    Both counterfactual arms are simulated on shared noise; the factual row
    is the drawn arm, so factual values agree with the matching do() arm
    exactly.  ``post_treatment_mask`` is ``simulate_arms``' mask of T's
    descendants at the feature nodes.

    Raises:
        DegenerateArms: the drawn treatment is single-class; increase n.
    """
    if graph.t_node is None or graph.y_node is None:
        raise ValueError("graph needs assigned roles; run select_roles first")
    noise = sample_noise(spec, rng)
    arm1, arm0, latent_t, post = simulate_arms(graph, spec, noise)
    propensity = 1.0 / (1.0 + np.exp(-latent_t))
    t = (rng.random(spec.n) < propensity).astype(np.float64)
    check_arms(t, "drawn treatment vector")
    values = np.where(t[:, None] == 1.0, arm1, arm0)
    tau = arm1[:, graph.y_node] - arm0[:, graph.y_node]

    feature_nodes = graph.feature_nodes()
    return Dataset(
        x=values[:, feature_nodes],
        t=t,
        y=values[:, graph.y_node],
        tau=tau,
        post_treatment_mask=post[feature_nodes],
    )


def make_dataset(spec: ScmSpec) -> tuple[CausalGraph, Dataset, int]:
    """Sample a feasible graph and its dataset from the ScmSpec seed."""
    rng = np.random.default_rng(spec.seed)
    graph, attempts = sample_or_retry(spec, rng)
    return graph, generate(graph, spec, rng), attempts


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def graph_to_json(graph: CausalGraph, spec: ScmSpec) -> str:
    d = graph.d
    payload = {
        "order": [int(v) for v in graph.order],
        "adj": [int(v) for v in graph.adj.astype(int).reshape(d * d)],
        "coef": [float(v) for v in graph.coef.reshape(d * d)],
        "t_node": graph.t_node,
        "y_node": graph.y_node,
        "mediators": list(graph.mediators),
        "hte_parents": {str(k): list(v) for k, v in graph.hte_parents.items()},
        "spec": asdict(spec),
    }
    return json.dumps(payload, indent=2)


def graph_from_json(text: str) -> tuple[CausalGraph, ScmSpec]:
    """Inverse of ``graph_to_json``.

    Raises:
        ConfigError: the text is not a JSON object of just the keys that
            ``graph_to_json`` writes, a value fails ``typed`` or
            ``spec_from_json``, ``order`` is not a permutation of range(d),
            ``adj`` or ``coef`` does not hold d*d values, an ``adj`` edge
            runs against ``order``, ``y_node`` is ``t_node``, ``mediators``
            lists either, ``t_node``, ``mediators``, ``y_node`` is not a
            directed path in ``adj``, ``hte_parents`` has a key off that path
            past ``t_node`` or an entry that is not its key's parent, or
            ``coef`` is zero on an ``adj`` edge or nonzero off one.
    """
    keys = ("spec", "order", "adj", "coef", "t_node", "y_node", "mediators", "hte_parents")
    payload = json_object("graph JSON", text, keys, keys)
    if not (isinstance(payload["spec"], dict) and isinstance(payload["hte_parents"], dict)):
        raise ConfigError("graph JSON 'spec' and 'hte_parents' must be objects")
    spec = spec_from_json("graph JSON 'spec'", payload["spec"])
    d = spec.d

    def get(key: str, kind):
        return typed(f"graph JSON '{key}'", payload[key], kind)

    order = get("order", [int])  # checked before any node is typed against range(d)
    if sorted(order) != list(range(d)):
        held = [f" holds {v}, not a node in range({d}), and" for v in order if v not in range(d)]
        raise ConfigError(f"graph JSON 'order'{''.join(held[:1])} must be a permutation of "
                          f"range({d}) (d in 'spec')")
    mediators = tuple(get("mediators", [range(d)]))
    hte = "graph JSON 'hte_parents'"
    hte_parents = {typed(hte, int(k) if k.isdecimal() else k, range(d)):
                   tuple(typed(hte, v, [range(d)])) for k, v in payload["hte_parents"].items()}
    for key in ("adj", "coef"):
        if not isinstance(payload[key], list) or len(payload[key]) != d * d:
            raise ConfigError(f"graph JSON '{key}' must be a list of d*d = {d * d} values")
    adj = np.array(get("adj", [range(2)]), dtype=bool).reshape(d, d)
    position = np.argsort(order)  # of each node in the causal order
    back = np.argwhere(adj & (position[:, None] >= position[None, :]))
    if back.size:
        i, j = back[0]
        raise ConfigError(f"graph JSON 'adj' edge {i} -> {j} runs against 'order'")
    t_node, y_node = get("t_node", range(d)), get("y_node", range(d))
    if t_node == y_node:
        raise ConfigError(f"graph JSON 't_node' and 'y_node' are both node {t_node}")
    for key in ("t_node", "y_node"):
        if payload[key] in mediators:
            raise ConfigError(f"graph JSON 'mediators' lists the '{key}' {payload[key]}")
    chain = (t_node, *mediators, y_node)
    if not all(adj[a, b] for a, b in zip(chain, chain[1:])):
        raise ConfigError(f"graph JSON 't_node', 'mediators', 'y_node' chain "
                          f"{' -> '.join(map(str, chain))} is not a directed path in 'adj'")
    for node, entries in hte_parents.items():
        if node not in chain[1:]:
            raise ConfigError(f"graph JSON 'hte_parents' key {node} is neither the 'y_node' "
                              f"{y_node} nor one of the 'mediators' {list(mediators)}")
        for entry in entries:
            if not adj[entry, node]:
                raise ConfigError(f"graph JSON 'hte_parents' entry {entry} of node {node} "
                                  f"is not its parent in 'adj'")
    coef = np.array(get("coef", [float])).reshape(d, d)
    off = np.argwhere(adj != (coef != 0.0))
    if off.size:
        i, j = off[0]
        raise ConfigError(f"graph JSON 'coef' entry ({i}, {j}) is {float(coef[i, j])!r}, but "
                          f"'adj' {'has' if adj[i, j] else 'lacks'} the edge {i} -> {j}")
    graph = CausalGraph(np.array(order, dtype=np.int64), adj, coef, t_node, y_node, mediators,
                        hte_parents=hte_parents)
    return graph, spec


def dataset_to_csv(dataset: Dataset) -> str:
    """Round-trip-safe CSV with header x0..x{k-1},t,y,tau."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    k = dataset.n_features
    writer.writerow([f"x{j}" for j in range(k)] + ["t", "y", "tau"])
    for i in range(dataset.x.shape[0]):
        row = [repr(float(v)) for v in dataset.x[i]]
        row.append(str(int(dataset.t[i])))
        row.append(repr(float(dataset.y[i])))
        row.append(repr(float(dataset.tau[i])))
        writer.writerow(row)
    return buf.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    """Inverse of ``dataset_to_csv``; ConfigError on a wrong header, one with
    no feature column, a feature column named ``t``, ``y`` or ``tau`` or
    named like an earlier one, no data rows, a row whose length differs from
    the header's, a cell that is not a number, a ``t`` value other than 0 or
    1, a ``t`` column of one arm only, a non-finite ``x``, ``y`` or ``tau``
    value, or text the csv module rejects.  Errors in a row name its CSV line."""
    records = csv_records("dataset CSV", text)
    header = next(records, (0, None))[1]
    if header is None or header[-3:] != ["t", "y", "tau"]:
        raise ConfigError("expected columns x0..x{k-1},t,y,tau")
    k = len(header) - 3
    if not k:
        raise ConfigError(f"dataset CSV header {','.join(header)!r} has no feature column")
    for j, name in enumerate(header[:k]):
        if name in header[k:]:
            raise ConfigError(f"dataset CSV feature column {j} is named {name!r}, which "
                              "names one of the last three columns t, y, tau")
        if name in header[:j]:
            raise ConfigError(f"dataset CSV feature column {j} repeats the name {name!r}")
    rows, lines = [], []
    for line, row in records:
        if not row:
            continue
        if len(row) != len(header):
            where = (f"lacks column {header[len(row)]}" if len(row) < len(header)
                     else f"runs past column {header[-1]}")
            raise ConfigError(f"dataset CSV line {line} {where}: {len(row)} cells, "
                              f"the header {len(header)}")
        values = []
        for name, cell in zip(header, row):
            try:
                values.append(float(cell))
            except ValueError:
                raise ConfigError(f"dataset CSV line {line}, column {name} holds "
                                  f"{cell!r}, not a number") from None
        rows.append(values)
        lines.append(line)
    if not rows:
        raise ConfigError("dataset CSV has no data rows")
    data = np.array(rows, dtype=np.float64)
    bad = data[:, k][(data[:, k] != 0) & (data[:, k] != 1)]
    if bad.size:
        raise ConfigError(f"dataset CSV column t must hold 0 or 1, found {float(bad[0])!r}")
    if data[:, k].min() == data[:, k].max():
        raise ConfigError(f"dataset CSV column t holds only the arm t = {int(data[0, k])}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ConfigError(f"dataset CSV line {lines[r]}, column {header[c]} holds "
                          f"{float(data[r, c])!r}, not a finite number")
    return Dataset(
        x=data[:, :k],
        t=data[:, k],
        y=data[:, k + 1],
        tau=data[:, k + 2],
        post_treatment_mask=np.zeros(k, dtype=bool),
    )
