"""Generator contracts: sampling, role assignment, noise, counterfactuals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hteselect import scm_gen
from hteselect.errors import DegenerateArms, InfeasibleSpec, NotPositiveDefinite, NoValidPair
from hteselect.harness import ExperimentConfig, MethodSpec
from hteselect.scm_gen import (
    CausalGraph,
    ScmSpec,
    backdoor_rows,
    dataset_from_csv,
    dataset_to_csv,
    generate,
    graph_from_json,
    graph_to_json,
    hop_powers,
    lowest_chain,
    make_dataset,
    role_candidates,
    sample_graph,
    sample_noise,
    sample_or_retry,
    select_roles,
    simulate_arms,
)

from graphs import build_graph


def _spec(**kw):
    base = dict(
        d=10, p_e=0.3, sigma=0.2, rho=0.5, gamma=False, m=0, p_h=0,
        m_p=False, n=2000, seed=0,
    )
    base.update(kw)
    return ScmSpec(**base)


# ---------------------------------------------------------------------------
# graph sampling
# ---------------------------------------------------------------------------


def test_zero_edge_probability_gives_empty_graph():
    g = sample_graph(_spec(p_e=0.0), np.random.default_rng(0))
    assert not g.adj.any()
    assert not g.coef.any()


def test_full_edge_probability_gives_complete_dag():
    g = sample_graph(_spec(d=3, p_e=1.0), np.random.default_rng(0))
    assert g.adj.sum() == 3
    assert np.all(g.adj == np.triu(np.ones((3, 3), bool), k=1))


def test_mean_edge_count_matches_binomial():
    # d=10, p_e=0.3: expected edges = 0.3 * 45 = 13.5
    rng = np.random.default_rng(123)
    spec = _spec(d=10, p_e=0.3)
    counts = [sample_graph(spec, rng).adj.sum() for _ in range(10_000)]
    assert abs(np.mean(counts) - 13.5) < 0.5


def test_adjacency_respects_causal_order():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = sample_graph(_spec(d=8, p_e=0.5), rng)
        assert not np.tril(g.adj).any()
        assert np.array_equal(g.adj, g.coef != 0.0)


# ---------------------------------------------------------------------------
# backdoor detection
# ---------------------------------------------------------------------------


def test_backdoor_in_collider_graph(collider_graph):
    assert backdoor_rows(collider_graph)[1, 2]


def test_no_backdoor_in_pure_chain():
    chain = build_graph(3, [(0, 1), (1, 2)])
    assert not backdoor_rows(chain)[0, 2]


def test_backdoor_in_multivariable_graph(multivariable_graph):
    assert backdoor_rows(multivariable_graph)[2, 8]


# ---------------------------------------------------------------------------
# graph walks against a transitive-closure oracle
# ---------------------------------------------------------------------------


def _closure(adj):
    """reach[i, j]: j is reachable from i by directed edges, or i == j."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        grown = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _nodes(row):
    return set(np.flatnonzero(row).tolist())


@settings(max_examples=30)
@given(d=st.integers(3, 10), p_e=st.floats(0.2, 1.0), seed=st.integers(0, 2**32 - 1))
def test_backdoor_row_follows_a_permuted_causal_order(d, p_e, seed):
    rng = np.random.default_rng(seed)
    g = sample_graph(_spec(d=d, p_e=p_e), rng)
    edges = np.argwhere(g.adj)
    if edges.size == 0:  # a graph file's roles are joined by an edge
        g.adj[0, -1], g.coef[0, -1] = True, 0.5
        edges = np.argwhere(g.adj)
    u, v = edges[rng.integers(len(edges))]
    perm = rng.permutation(d)  # node v of g is node perm[v] of the renamed graph
    adj = np.zeros_like(g.adj)
    adj[np.ix_(perm, perm)] = g.adj
    coef = np.zeros_like(g.coef)
    coef[np.ix_(perm, perm)] = g.coef
    renamed = CausalGraph(perm, adj, coef, t_node=int(perm[u]), y_node=int(perm[v]))
    # a graph file whose edges all run forward in a permuted order loads
    loaded, _ = graph_from_json(graph_to_json(renamed, _spec(d=d, p_e=p_e)))
    assert np.array_equal(backdoor_rows(loaded)[np.ix_(perm, perm)], backdoor_rows(g))


@settings(max_examples=60)
@given(
    d=st.integers(3, 12),
    p_e=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_graph_walks_match_transitive_closure(d, p_e, seed):
    g = sample_graph(_spec(d=d, p_e=p_e), np.random.default_rng(seed))
    reach = _closure(g.adj)
    for v in range(d):
        assert g.descendants(v) == _nodes(reach[v])
        assert g.ancestors(v) == _nodes(reach[:, v])

    backdoor = np.zeros((d, d), dtype=bool)
    for t in range(d):
        # common-ancestor definition: some a != t, y has a directed path into
        # t and one into y that avoids t
        cut = g.adj.copy()
        cut[t, :] = False
        cut[:, t] = False
        reach_cut = _closure(cut)
        for y in range(d):
            if y == t:
                continue
            backdoor[t, y] = any(
                reach[a, t] and reach_cut[a, y] for a in range(d) if a not in (t, y)
            )
    assert np.array_equal(backdoor_rows(g), backdoor)

    # role candidates: exact-hop pairs filtered by the backdoor criterion
    for m in range(min(3, d - 1)):
        hops = np.linalg.matrix_power(g.adj.astype(np.int64), m + 1)
        pairs = [(int(t), int(y)) for t, y in zip(*np.nonzero(hops))]
        for gamma in (False, True):
            want = [(t, y) for t, y in pairs if backdoor[t, y] == gamma]
            assert role_candidates(g, _spec(d=d, m=m, gamma=gamma)) == want, (m, gamma)


@settings(max_examples=40)
@given(d=st.integers(3, 7), p_e=st.floats(0.1, 1.0), permuted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_chain_walk_matches_path_enumeration(d, p_e, permuted, seed):
    """Every pair joined by a directed path with exactly m intermediates,
    and only those, is an exact-hop pair, and its chain is the smallest such
    path in lexicographic order, also when node ids do not follow the
    causal order."""
    rng = np.random.default_rng(seed)
    adj = sample_graph(_spec(d=d, p_e=p_e), rng).adj
    if permuted:
        perm = rng.permutation(d)
        adj = adj[np.ix_(perm, perm)]
    for m in range(d - 1):
        paths = {}
        for t, y in itertools.permutations(range(d), 2):
            for mid in itertools.permutations(set(range(d)) - {t, y}, m):
                path = [t, *mid, y]
                if all(adj[a, b] for a, b in zip(path, path[1:])):
                    paths[t, y] = min(paths.get((t, y), path), path)
        assert set(map(tuple, np.argwhere(hop_powers(adj, m)[-1]).tolist())) == set(paths)
        for (t, y), path in paths.items():
            assert lowest_chain(adj, t, y, m) == path, (t, y, m)


# ---------------------------------------------------------------------------
# role selection
# ---------------------------------------------------------------------------


def test_chain_roles_without_confounding():
    chain = build_graph(3, [(0, 1), (1, 2)])
    g = select_roles(chain, _spec(d=3, m=1, gamma=False), np.random.default_rng(0))
    assert (g.t_node, g.y_node) == (0, 2)
    assert g.mediators == (1,)


def test_chain_roles_with_confounding_raise():
    chain = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NoValidPair):
        select_roles(chain, _spec(d=3, m=1, gamma=True), np.random.default_rng(0))


def test_multivariable_qualifies_with_mediator(multivariable_graph):
    spec = _spec(d=10, m=1, gamma=True)
    cands = role_candidates(multivariable_graph, spec)
    assert (2, 8) in cands
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = select_roles(multivariable_graph, spec, rng)
        if (g.t_node, g.y_node) == (2, 8):
            assert g.mediators == (5,)
            break
    else:
        pytest.fail("pair (2, 8) never sampled")


def test_interaction_parent_sampling():
    # (1, 4) is the unique confounded pair with a 1-hop path (backdoor via 0)
    g = build_graph(5, [(0, 1), (1, 2), (2, 4), (0, 4), (3, 4), (1, 4)])
    spec = _spec(d=5, m=1, gamma=True, p_h=2)
    rolled = select_roles(g, spec, np.random.default_rng(2))
    assert (rolled.t_node, rolled.y_node) == (1, 4)
    assert rolled.mediators == (2,)
    # chain parent 2 and treatment 1 excluded; 0 and 3 are the eligible pool
    assert rolled.hte_parents[4] == (0, 3)


def test_sample_or_retry_feasible_and_infeasible():
    g, attempts = sample_or_retry(_spec(gamma=True, m=1, seed=3), np.random.default_rng(3))
    assert attempts >= 1 and g.t_node is not None
    with pytest.raises(InfeasibleSpec):
        sample_or_retry(_spec(p_e=0.0, gamma=True, m=1), np.random.default_rng(0))


def _pairwise_role_candidates(graph, spec):
    """Role search with one ancestor walk per exact-hop pair."""

    def backdoor(t, y):
        cut = graph.adj.copy()
        cut[t, :] = False
        cut[:, t] = False
        anc_y = scm_gen.reachable(y, lambda v: np.flatnonzero(cut[:, v]).tolist())
        return bool((graph.ancestors(t) - {t, y}) & anc_y)

    hops = np.linalg.matrix_power(graph.adj.astype(np.int64), spec.m + 1)
    return [(int(t), int(y)) for t, y in zip(*np.nonzero(hops))
            if backdoor(int(t), int(y)) == spec.gamma]


def test_sample_or_retry_matches_pairwise_role_search(monkeypatch):
    # the six SCMs of the perfbench discovery_wide panel (master seeds 0-5)
    base = dict(d=60, p_e=0.2, sigma=0.2, rho=0.1, gamma=True, m=2, p_h=1,
                m_p=False, n=10000)
    specs = [ExperimentConfig(base=base, methods=(MethodSpec("None"),), master_seed=seed)
             .spec_for_replicate(0) for seed in range(6)]

    def sample_all():
        out = []
        for spec in specs:
            g, attempts = sample_or_retry(spec, np.random.default_rng(spec.seed))
            out.append((graph_to_json(g, spec), attempts))
        return out

    fast = sample_all()
    monkeypatch.setattr(scm_gen, "role_candidates", _pairwise_role_candidates)
    assert sample_all() == fast


def test_sample_or_retry_success_rate():
    spec = _spec(d=10, p_e=0.3, gamma=True, m=1)
    ok = 0
    for seed in range(100):
        try:
            sample_or_retry(spec, np.random.default_rng(seed))
            ok += 1
        except InfeasibleSpec:
            pass
    assert ok >= 90


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_independent_noise_columns():
    noise = sample_noise(_spec(d=4, sigma=0.0, n=10_000), np.random.default_rng(0))
    corr = np.corrcoef(noise, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.05


def test_noise_covariance_matches_sigma():
    noise = sample_noise(_spec(d=5, sigma=0.4, n=50_000), np.random.default_rng(1))
    cov = np.cov(noise, rowvar=False)
    off = cov[~np.eye(5, dtype=bool)]
    assert np.all(np.abs(off - 0.4) < 0.02)


def test_near_singular_covariance_rejected():
    # cholesky on the d=50, sigma=0.999 matrix succeeds numerically, but the
    # generator applies a d-scaled eigenvalue floor and must reject it
    cov = np.full((50, 50), 0.999)
    np.fill_diagonal(cov, 1.0)
    np.linalg.cholesky(cov)  # feasible in exact float terms
    spec = ScmSpec(d=50, p_e=0.1, sigma=0.999, rho=0.5, gamma=False, m=0,
                   p_h=0, m_p=False, n=10, seed=0)
    with pytest.raises(NotPositiveDefinite):
        sample_noise(spec, np.random.default_rng(0))


def test_boundary_sigma_rejected_consistently():
    # sigma -> 1 makes the smallest eigenvalue 0; any positive floor rejects
    spec = ScmSpec.__new__(ScmSpec)  # bypass validation to probe the check
    object.__setattr__(spec, "d", 2)
    object.__setattr__(spec, "sigma", 1.0)
    object.__setattr__(spec, "n", 10)
    with pytest.raises(NotPositiveDefinite):
        sample_noise(spec, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# data generation and ground truth
# ---------------------------------------------------------------------------


def _enumerate_path_products(graph, src, dst):
    """Independent oracle: sum over directed paths of coefficient products."""
    total = 0.0
    stack = [(src, 1.0)]
    while stack:
        node, prod = stack.pop()
        if node == dst:
            total += prod
            continue
        for child in np.flatnonzero(graph.adj[node]):
            stack.append((int(child), prod * graph.coef[node, child]))
    return total


def test_direct_edge_constant_effect():
    g = build_graph(3, [(0, 1), (1, 2)], t=1, y=2, coef={(0, 1): 0.4, (1, 2): 0.9})
    spec = _spec(d=3, n=500, m=0)
    ds = generate(g, spec, np.random.default_rng(0))
    assert np.allclose(ds.tau, 0.9)


def test_chain_plus_direct_edge_effect():
    # T -> D -> Y with 0.8 * 0.25 plus direct T -> Y 0.5: tau = 0.7 exactly
    g = build_graph(
        3,
        [(0, 1), (1, 2), (0, 2)],
        t=0,
        y=2,
        mediators=(1,),
        coef={(0, 1): 0.8, (1, 2): 0.25, (0, 2): 0.5},
    )
    ds = generate(g, _spec(d=3, n=200, m=1), np.random.default_rng(1))
    assert np.allclose(ds.tau, 0.7)


def test_interaction_parent_induces_heterogeneity():
    # X_p -> Y interaction: tau varies across units
    g = build_graph(
        3, [(0, 2), (1, 2)], t=1, y=2, hte={2: (0,)},
        coef={(0, 2): 0.3, (1, 2): 0.5},
    )
    ds = generate(g, _spec(d=3, n=2000, p_h=1), np.random.default_rng(2))
    assert ds.tau.var() > 0.1


def test_no_causal_path_zero_effect():
    g = build_graph(3, [(0, 1), (0, 2)], t=1, y=2)
    noise = sample_noise(_spec(d=3, n=300), np.random.default_rng(3))
    arm1, arm0, _, _ = simulate_arms(g, _spec(d=3, n=300), noise)
    tau = arm1[:, g.y_node] - arm0[:, g.y_node]
    assert np.all(tau == 0.0)


def test_linear_effect_matches_path_enumeration():
    rng = np.random.default_rng(4)
    for seed in range(20):
        spec = _spec(d=8, p_e=0.4, m=0, p_h=0, n=50, seed=seed)
        g, _ = sample_or_retry(spec, np.random.default_rng(seed))
        noise = sample_noise(spec, rng)
        arm1, arm0, _, _ = simulate_arms(g, spec, noise)
        tau = arm1[:, g.y_node] - arm0[:, g.y_node]
        expected = _enumerate_path_products(g, g.t_node, g.y_node)
        assert np.allclose(tau, expected, atol=1e-10)


def test_interaction_effect_matches_symbolic_expansion():
    # 4 nodes: x_p=0, t=1, m=2, y=3; y = c_my * m + c_xy * x + m * x_p + rho*e
    # with m = c_tm * t + rho*e_m (no mediator interaction).
    # tau = c_my*c_tm + c_tm*x_p  (mediating parent of y is m)
    c = {(1, 2): 0.8, (2, 3): 0.5, (0, 3): 0.3}
    g = build_graph(4, list(c), t=1, y=3, mediators=(2,), hte={3: (0,)}, coef=c)
    spec = _spec(d=4, m=1, p_h=1, n=1000)
    noise = sample_noise(spec, np.random.default_rng(5))
    arm1, arm0, _, _ = simulate_arms(g, spec, noise)
    tau = arm1[:, g.y_node] - arm0[:, g.y_node]
    x_p = noise[:, 0]  # source node takes its raw noise value
    expected = 0.5 * 0.8 + 0.8 * x_p
    assert np.allclose(tau, expected, atol=1e-10)


def test_counterfactual_consistency_and_mask():
    spec = _spec(d=10, p_e=0.4, gamma=True, m=1, p_h=1, n=800, seed=11)
    g, ds, _ = make_dataset(spec)
    assert np.isfinite(ds.x).all() and np.isfinite(ds.y).all() and np.isfinite(ds.tau).all()
    np.testing.assert_array_equal(np.unique(ds.t), [0.0, 1.0])
    # factual rows equal the matching do() arm exactly
    rng = np.random.default_rng(spec.seed)
    g2, _ = sample_or_retry(spec, rng)
    noise = sample_noise(spec, rng)
    arm1, arm0, _, _ = simulate_arms(g2, spec, noise)
    y1, y0 = arm1[:, g2.y_node], arm0[:, g2.y_node]
    picked = np.where(ds.t == 1.0, y1, y0)
    assert np.array_equal(ds.y, picked)
    # mask equals reachability restricted to feature columns
    post = g.descendants(g.t_node) - {g.t_node}
    assert np.array_equal(
        ds.post_treatment_mask,
        np.array([node in post for node in g.feature_nodes()]),
    )


def _simulate_arm(graph, spec, noise, do_t):
    """Reference: one arm on its own, with the treatment forced to ``do_t``;
    mediator interactions only under ``spec.m_p``.  Returns the value matrix
    and the treatment's latent linear value."""
    n = noise.shape[0]
    values = np.zeros((n, graph.d))
    latent_t = np.zeros(n)
    chain = (graph.t_node, *graph.mediators, graph.y_node)
    chain_pred = {chain[k + 1]: chain[k] for k in range(len(chain) - 1)}
    for i in graph.order:
        i = int(i)
        parents = graph.parents(i)
        if parents.size == 0:
            val = noise[:, i].copy()
        else:
            val = values[:, parents] @ graph.coef[parents, i] + spec.rho * noise[:, i]
        if i == graph.t_node:
            latent_t = val
            values[:, i] = do_t
            continue
        interaction_parents = graph.hte_parents.get(i, ())
        if interaction_parents:
            is_mediator = i in chain_pred and i != graph.y_node
            if i == graph.y_node or (is_mediator and spec.m_p):
                mediating = values[:, chain_pred[i]]
                val = val + mediating * values[:, list(interaction_parents)].sum(axis=1)
        values[:, i] = val
    return values, latent_t


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


@settings(max_examples=80, deadline=None)
@given(
    spec=st.integers(3, 12).flatmap(lambda d: st.builds(
        ScmSpec,
        d=st.just(d), p_e=st.floats(0.1, 1.0), sigma=st.floats(0.0, 0.9),
        rho=st.floats(0.05, 1.0), gamma=st.booleans(), m=st.integers(0, min(2, d - 2)),
        p_h=st.integers(0, 2), m_p=st.booleans(), n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    ))
)
def test_simulate_arms_matches_per_arm_reference(spec):
    rng = np.random.default_rng(spec.seed)
    try:
        graph, _ = sample_or_retry(spec, rng)
    except InfeasibleSpec:
        return
    noise = sample_noise(spec, rng)
    arm1, arm0, latent_t, _ = simulate_arms(graph, spec, noise)
    ref1, ref_latent = _simulate_arm(graph, spec, noise, 1.0)
    ref0, _ = _simulate_arm(graph, spec, noise, 0.0)
    assert arm1.flags.f_contiguous and arm0.flags.f_contiguous
    assert _same_bits(arm1, ref1) and _same_bits(arm0, ref0)
    assert _same_bits(latent_t, ref_latent)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.integers(3, 12).flatmap(lambda d: st.builds(
        ScmSpec,
        d=st.just(d), p_e=st.floats(0.1, 1.0), sigma=st.floats(0.0, 0.9),
        rho=st.floats(0.05, 1.0), gamma=st.booleans(), m=st.integers(0, min(2, d - 2)),
        p_h=st.integers(0, 2), m_p=st.booleans(), n=st.integers(20, 200),
        seed=st.integers(0, 2**32 - 1),
    ))
)
def test_dataset_layout(spec):
    """``x`` is column-major, as every downstream gemm reads it; the other
    fields are contiguous vectors."""
    try:
        _, ds, _ = make_dataset(spec)
    except (InfeasibleSpec, DegenerateArms):
        return
    assert ds.x.ndim == 2 and ds.x.flags.f_contiguous
    for v in (ds.t, ds.y, ds.tau, ds.post_treatment_mask):
        assert v.ndim == 1 and v.flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(
    spec=st.integers(3, 12).flatmap(lambda d: st.builds(
        ScmSpec,
        d=st.just(d), p_e=st.floats(0.1, 1.0), sigma=st.floats(0.0, 0.9),
        rho=st.floats(0.05, 1.0), gamma=st.booleans(), m=st.integers(0, min(2, d - 2)),
        p_h=st.integers(0, 2), m_p=st.booleans(), n=st.integers(20, 100),
        seed=st.integers(0, 2**32 - 1),
    )),
    permute=st.booleans(),
)
def test_simulate_arms_marks_the_treatment_descendants(spec, permute):
    """The mask ``simulate_arms`` derives in its pass is T's strict descendants,
    also in a permuted causal order, and the dataset's mask is it at the
    feature nodes."""
    rng = np.random.default_rng(spec.seed)
    try:
        g, _ = sample_or_retry(spec, rng)
    except InfeasibleSpec:
        return
    if permute:  # node v of g is node perm[v] of the renamed graph
        perm = rng.permutation(spec.d)
        adj, coef = np.zeros_like(g.adj), np.zeros_like(g.coef)
        adj[np.ix_(perm, perm)], coef[np.ix_(perm, perm)] = g.adj, g.coef
        g = CausalGraph(perm, adj, coef, int(perm[g.t_node]), int(perm[g.y_node]),
                        tuple(int(perm[v]) for v in g.mediators),
                        {int(perm[k]): tuple(int(perm[v]) for v in parents)
                         for k, parents in g.hte_parents.items()})
    post = g.descendants(g.t_node) - {g.t_node}
    _, _, _, mask = simulate_arms(g, spec, sample_noise(spec, np.random.default_rng(0)))
    assert mask.dtype == bool and mask.shape == (spec.d,)
    assert set(np.flatnonzero(mask).tolist()) == post
    try:
        ds = generate(g, spec, rng)
    except DegenerateArms:
        return
    assert ds.post_treatment_mask.dtype == bool
    assert ds.post_treatment_mask.tolist() == [node in post for node in g.feature_nodes()]


def test_role_correctness_for_both_gamma_values():
    for gamma, seed in [(True, 21), (False, 22)]:
        spec = _spec(d=10, p_e=0.35, gamma=gamma, m=1, seed=seed)
        g, _ = sample_or_retry(spec, np.random.default_rng(seed))
        assert backdoor_rows(g)[g.t_node, g.y_node] == gamma


def test_heterogeneity_switch_off_gives_constant_tau():
    spec = _spec(d=10, p_e=0.4, gamma=True, m=1, p_h=0, m_p=False, n=500, seed=31)
    _, ds, _ = make_dataset(spec)
    assert ds.tau.var() < 1e-12


def test_determinism_bit_identical():
    spec = _spec(d=10, p_e=0.3, gamma=True, m=1, p_h=1, n=400, seed=77)
    g1, ds1, _ = make_dataset(spec)
    g2, ds2, _ = make_dataset(spec)
    assert np.array_equal(g1.adj, g2.adj)
    assert np.array_equal(g1.coef, g2.coef)
    assert (g1.t_node, g1.y_node, g1.mediators) == (g2.t_node, g2.y_node, g2.mediators)
    assert np.array_equal(ds1.x, ds2.x)
    assert np.array_equal(ds1.y, ds2.y)
    assert np.array_equal(ds1.tau, ds2.tau)


# ---------------------------------------------------------------------------
# persistence round-trips
# ---------------------------------------------------------------------------


def test_graph_json_round_trip():
    spec = _spec(d=6, p_e=0.5, gamma=False, m=1, p_h=1, seed=9)
    g, _ = sample_or_retry(spec, np.random.default_rng(9))
    g2, spec2 = graph_from_json(graph_to_json(g, spec))
    assert spec2 == spec
    assert np.array_equal(g.adj, g2.adj)
    assert np.array_equal(g.coef, g2.coef)
    assert g.hte_parents == g2.hte_parents


def test_dataset_csv_round_trip():
    spec = _spec(d=5, p_e=0.5, n=50, seed=13)
    _, ds, _ = make_dataset(spec)
    ds2 = dataset_from_csv(dataset_to_csv(ds))
    assert np.array_equal(ds.x, ds2.x)
    assert np.array_equal(ds.t, ds2.t)
    assert np.array_equal(ds.y, ds2.y)
    assert np.array_equal(ds.tau, ds2.tau)
