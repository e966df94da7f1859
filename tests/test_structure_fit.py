"""Discovery pipeline: CI testing, PC sets, colliders, orientation, traversal."""

import functools
import json
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import hteselect

from hteselect.errors import ConstantColumn, DegenerateArms, NumericError
from hteselect.scm_gen import ScmSpec, generate, sample_or_retry
from hteselect.supervised import column_moments
from hteselect.structure_fit import (
    CHILD_GATE,
    LR_THRESHOLD,
    RECI_TIE_TOL,
    CiTestConfig,
    DataOrienter,
    DSepOracle,
    FisherZTester,
    GraphOrienter,
    StandardColumn,
    binary_direction_loglik,
    d_separated,
    discover_colliders,
    eliminate,
    local_structure,
    oracle_adjustment,
    orient_reci,
    pc_simple,
    structure_fit,
)

from graphs import build_graph

CFG = CiTestConfig(alpha=0.05, max_cond=3)


# ---------------------------------------------------------------------------
# fisher z
# ---------------------------------------------------------------------------


def test_identical_columns_dependent():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(200, 2))
    p, indep = FisherZTester(data, CFG).test(0, 0, ())
    assert p == 0.0 and not indep


def test_fisher_z_calibration_on_independent_normals():
    rng = np.random.default_rng(1)
    rejections = 0
    trials = 2000
    for _ in range(trials):
        data = rng.normal(size=(100, 2))
        _, indep = FisherZTester(data, CFG).test(0, 1, ())
        rejections += not indep
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07


def test_chain_conditional_independence_detected():
    # acceptance of the true conditional independence is calibrated at
    # 1 - alpha = 95% in expectation; the bound leaves binomial headroom
    hits_marginal = hits_conditional = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 5000
        a = rng.normal(size=n)
        b = a + 0.8 * rng.normal(size=n)
        c = b + 0.8 * rng.normal(size=n)
        data = np.column_stack([a, b, c])
        tester = FisherZTester(data, CFG)
        hits_marginal += not tester.independent(0, 2, ())
        hits_conditional += tester.independent(0, 2, (1,))
    assert hits_marginal >= 99
    assert hits_conditional >= 90


def test_sample_size_precondition():
    data = np.random.default_rng(2).normal(size=(5, 4))
    with pytest.raises(NumericError):
        FisherZTester(data, CFG).test(0, 1, (2, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_data_raises_numeric_error(bad):
    rng = np.random.default_rng(4)
    a = rng.normal(size=400)
    data = np.column_stack([a, a + 0.5 * rng.normal(size=400), rng.normal(size=400)])
    data[7, 0] = bad
    with pytest.raises(NumericError):
        FisherZTester(data, CFG)


def test_constant_column_tests_independent():
    data = np.random.default_rng(5).normal(size=(200, 3))
    data[:, 2] = 1.0
    p, indep = FisherZTester(data, CFG).test(0, 2, ())
    assert p == 1.0 and indep


def _with_correlation(r, n, rng):
    """Two columns whose sample correlation is r up to round-off."""
    a, b = rng.normal(size=(2, n))
    a = (a - a.mean()) / a.std()
    b = b - b.mean()
    b -= (b @ a) / n * a
    b /= b.std()
    return np.column_stack([a, r * a + math.sqrt(1.0 - r * r) * b])


def test_p_value_matches_normal_tail_on_z_grid():
    n = 100
    rng = np.random.default_rng(5)
    for target in np.linspace(0.0, 8.0, 161):
        tester = FisherZTester(_with_correlation(math.tanh(target / math.sqrt(n - 3)), n, rng), CFG)
        r = tester.corr[0, 1]
        z = math.atanh(r) * math.sqrt(n - 3)
        p, _ = tester.test(0, 1)
        want = 2.0 * norm.sf(abs(z))
        assert abs(p - want) <= 1e-12 * want, (target, p, want)


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(hteselect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hteselect; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _correlated_data(seed, n=300, d=10):
    """Rows of a random linear-Gaussian model: some pairs dependent, some not."""
    rng = np.random.default_rng(seed)
    coef = np.triu(rng.uniform(-1.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.3), k=1)
    data = np.zeros((n, d))
    for v in range(d):
        data[:, v] = data @ coef[:, v] + rng.normal(size=n)
    return data


def _scalar_eliminate(tester, target, survivors, level):
    """One PC-simple level as a set-by-set loop over the scalar ``test``."""
    kept = list(survivors)
    for c in survivors:
        others = [o for o in kept if o != c]
        if any(tester.test(c, target, s)[1] for s in combinations(others, level)):
            kept.remove(c)
    return kept


class _AllUnsure:
    """A data tester whose level tables decide nothing, so that ``eliminate``
    asks ``independent`` about every pair it reaches, as it does the
    d-separation oracle."""

    def __init__(self, tester):
        self.tester = tester

    def independent(self, i, j, cond):
        return self.tester.independent(i, j, cond)

    def level_verdicts(self, target, survivors, sets):
        indep, unsure = self.tester.level_verdicts(target, survivors, sets)
        return np.zeros_like(indep), np.ones_like(unsure)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 300),
    d=st.integers(3, 8),
    level=st.integers(0, 3),
    copies=st.integers(0, 3),
    noise=st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-2]),
    constant=st.booleans(),
    edge=st.sampled_from([None, -1e-12, -1, 0, 1, 1e-12]),
    block=st.sampled_from([None, 1, 40]),
)
def test_eliminate_matches_scalar_loop(seed, n, d, level, copies, noise, constant, edge, block):
    # copied columns (plus noise, none for exact duplicates) give singular
    # and near-singular sets; ``edge`` puts alpha 1e-12 or a few ulps away
    # from the largest exact p-value of the first survivor, which decides it.
    # The same loop with every pair left to ``independent`` (``_AllUnsure``)
    # must keep the same survivors as with the Schur tables.
    rng = np.random.default_rng(seed)
    data = _correlated_data(seed, n=n, d=d)
    for col in rng.choice(d, size=min(copies, d - 1), replace=False):
        data[:, col] = data[:, rng.integers(d)] + noise * rng.normal(size=n)
    if constant:
        data[:, rng.integers(d)] = 2.5
    target = int(rng.integers(d))
    survivors = [c for c in range(d) if c != target]
    assume(len(survivors) > level and n > level + 3)
    cfg = CFG
    if edge is not None:
        exact = FisherZTester(data, CFG)
        p = max(exact.test(survivors[0], target, s)[0]
                for s in combinations(survivors[1:], level))
        assume(1e-11 < p < 1.0 - 1e-11)
        alpha = p + edge if isinstance(edge, float) else p + edge * np.spacing(p)
        cfg = CiTestConfig(alpha=alpha, max_cond=3)
    logging.disable(logging.WARNING)
    try:
        default = hteselect.structure_fit.BLOCK_ENTRIES
        with mock.patch("hteselect.structure_fit.BLOCK_ENTRIES", block or default):
            got = eliminate(FisherZTester(data, cfg), target, survivors, level)
        pairwise = eliminate(_AllUnsure(FisherZTester(data, cfg)), target, survivors, level)
        want = _scalar_eliminate(FisherZTester(data, cfg), target, survivors, level)
    finally:
        logging.disable(logging.NOTSET)
    assert got == pairwise == want


def _scalar_pc_simple(tester, target, candidates, cfg):
    """pc_simple as a set-by-set loop over ``independent``."""
    survivors = [c for c in sorted(candidates) if not tester.independent(c, target, ())]
    level = 1
    while level <= cfg.max_cond and len(survivors) > level:
        for c in list(survivors):
            others = [o for o in survivors if o != c]
            if any(tester.independent(c, target, s) for s in combinations(others, level)):
                survivors.remove(c)
        level += 1
    return set(survivors)


def test_pc_simple_matches_scalar_loop():
    for seed in range(4):
        data = _correlated_data(seed, d=12)
        for target in range(data.shape[1]):
            candidates = [c for c in range(data.shape[1]) if c != target]
            batched, scalar = FisherZTester(data, CFG), FisherZTester(data, CFG)
            assert pc_simple(batched, target, candidates, CFG) == _scalar_pc_simple(
                scalar, target, candidates, CFG
            )


def test_singular_set_in_a_level_is_dependent(caplog):
    rng = np.random.default_rng(6)
    data = rng.normal(size=(200, 6))
    data[:, 1] += 0.4 * data[:, 0]
    data[:, 5] = data[:, 3]  # the set (3, 5) repeats a column
    tester = FisherZTester(data, CFG)
    with caplog.at_level(logging.WARNING, logger="hteselect.structure_fit"):
        # 2 is independent given (0, 3); 3 and 5 then meet only sets that
        # hold their copy (singular, so dependent) or the removed 2
        assert eliminate(tester, 1, [0, 2, 3, 5], 2) == [0, 3, 5]
    singular = [rec.getMessage() for rec in caplog.records if "singular" in rec.getMessage()]
    assert [m for m in singular if "(3, 5)" in m] == [
        "singular conditioning set for (0, 1) given (3, 5); treating as dependent"
    ]
    assert _scalar_eliminate(FisherZTester(data, CFG), 1, [0, 2, 3, 5], 2) == [0, 3, 5]
    assert tester.test(0, 1, (3, 5))[0] == 0.0
    for cond in [(2, 3), (2, 5)]:
        assert 0.0 < tester.test(0, 1, cond)[0] < CFG.alpha


@pytest.mark.parametrize("seed", range(5))
def test_duplicated_column_set_is_singular(seed, caplog):
    # np.corrcoef rounds the copy's correlation to 1.0 on some seeds only;
    # the verdict must not depend on that last bit
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(200, 5))
    data[:, 4] = data[:, 3]
    tester = FisherZTester(data, CFG)
    with caplog.at_level(logging.WARNING, logger="hteselect.structure_fit"):
        assert tester.test(0, 1, (3, 4)) == (0.0, False)
    singular = [rec for rec in caplog.records if "singular" in rec.getMessage()]
    assert len(singular) == 1 and "(3, 4)" in singular[0].getMessage()


# ---------------------------------------------------------------------------
# d-separation oracle
# ---------------------------------------------------------------------------


def test_dsep_on_collider_graph(collider_graph):
    g = collider_graph  # X=0, T=1, Y=2, L=3
    assert not d_separated(g, 1, 2, ())
    assert not d_separated(g, 1, 2, (0,))  # direct edge stays open
    # conditioning on the collider L opens T - Y ... they are already adjacent;
    # use the pure collider pair instead: X and T are both parents of Y? no.
    # A -> C <- B pattern:
    h = build_graph(3, [(0, 2), (1, 2)])
    assert d_separated(h, 0, 1, ())
    assert not d_separated(h, 0, 1, (2,))


def test_dsep_chain_and_fork():
    chain = build_graph(3, [(0, 1), (1, 2)])
    assert not d_separated(chain, 0, 2, ())
    assert d_separated(chain, 0, 2, (1,))
    fork = build_graph(3, [(1, 0), (1, 2)])
    assert not d_separated(fork, 0, 2, ())
    assert d_separated(fork, 0, 2, (1,))


# ---------------------------------------------------------------------------
# pc_simple
# ---------------------------------------------------------------------------


def test_pc_simple_pure_noise_rejects_all():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(3000, 6))
    tester = FisherZTester(data, CFG)
    pc = pc_simple(tester, 0, range(1, 6), CFG)
    assert len(pc) <= 1  # false inclusions bounded near alpha per candidate


def test_pc_simple_oracle_collider_graph(collider_graph):
    oracle = DSepOracle(collider_graph)
    assert pc_simple(oracle, 1, [0, 2, 3], CFG) == {0, 2, 3}
    assert pc_simple(oracle, 2, [0, 1, 3], CFG) == {0, 1, 3}


def test_pc_simple_oracle_multivariable_worked_example(multivariable_graph):
    # PC(T) over all other nodes is exactly {A, X, B, D}
    oracle = DSepOracle(multivariable_graph)
    candidates = [n for n in range(10) if n != 2]
    assert pc_simple(oracle, 2, candidates, CFG) == {0, 1, 3, 5}
    # PC(D) is exactly {T, C, E, Y}
    candidates = [n for n in range(10) if n != 5]
    assert pc_simple(oracle, 5, candidates, CFG) == {2, 4, 6, 8}


def test_pc_simple_monotone_in_alpha():
    rng = np.random.default_rng(4)
    spec = ScmSpec(d=8, p_e=0.4, sigma=0.2, rho=0.5, gamma=False, m=0,
                   p_h=0, m_p=False, n=2000, seed=17)
    graph, _ = sample_or_retry(spec, np.random.default_rng(17))
    ds = generate(graph, spec, np.random.default_rng(17))
    data = np.column_stack([ds.x, ds.t, ds.y])
    target = data.shape[1] - 1
    candidates = range(data.shape[1] - 1)
    previous: set | None = None
    for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
        cfg = CiTestConfig(alpha=alpha, max_cond=3)
        pc = pc_simple(FisherZTester(data, cfg), target, candidates, cfg)
        if previous is not None:
            assert pc.issubset(previous)
        previous = pc


# ---------------------------------------------------------------------------
# collider discovery
# ---------------------------------------------------------------------------


def test_collider_discovery_monte_carlo():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = 5000
        a = rng.normal(size=n)
        x = rng.normal(size=n)
        target = 0.8 * a + 0.8 * x + 0.5 * rng.normal(size=n)
        data = np.column_stack([a, x, target])
        tester = FisherZTester(data, CFG)
        parents = discover_colliders(tester, 2, {0, 1})
        hits += parents == {0, 1}
    assert hits >= 45  # >= 90% of seeds


def test_collider_discovery_single_member_no_pairs():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(100, 2))
    tester = FisherZTester(data, CFG)
    assert discover_colliders(tester, 1, {0}) == set()


def test_collider_discovery_oracle_multivariable(multivariable_graph):
    oracle = DSepOracle(multivariable_graph)
    parents = discover_colliders(oracle, 2, {0, 1, 3, 5})
    assert parents == {0, 1}  # A and X flagged; children B, D untouched


# ---------------------------------------------------------------------------
# pairwise orientation
# ---------------------------------------------------------------------------


def _reci(data, i, j):
    """``orient_reci`` on fresh ``StandardColumn``s of data columns i and j."""
    return orient_reci(StandardColumn(data[:, i]), StandardColumn(data[:, j]))


def test_reci_recovers_cubic_mechanism():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=2000)
        y = x**3 + 0.05 * rng.normal(size=2000)
        hits += _reci(np.column_stack([x, y]), 0, 1) > 0
    assert hits >= 80


def test_reci_tie_on_exactly_symmetric_sample():
    rng = np.random.default_rng(6)
    a = rng.normal(size=500)
    b = 0.6 * a + 0.8 * rng.normal(size=500)
    # mirror the sample so the empirical joint is exchange-symmetric
    data = np.column_stack([np.concatenate([a, b]), np.concatenate([b, a])])
    assert _reci(data, 0, 1) == 0.0


def test_reci_antisymmetric_in_arguments():
    rng = np.random.default_rng(7)
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = r.uniform(-1, 1, size=500)
        y = x**3 + 0.1 * r.normal(size=500)
        data = np.column_stack([x, y])
        assert _reci(data, 1, 0) == -_reci(data, 0, 1)


# entries whose products with 2^e, |e| <= 300, stay normal: such a scaling is exact
_RECI_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=60)
@given(columns=st.integers(6, 40).flatmap(
           lambda n: st.tuples(*[st.lists(_RECI_ENTRY, min_size=n, max_size=n)] * 2)),
       e_a=st.integers(-300, 300), e_b=st.integers(-300, 300))
def test_reci_score_is_antisymmetric_and_invariant_to_power_of_two_scaling(columns, e_a, e_b):
    # column_moments scales exactly with a column, so its standardized column,
    # and with it every residual the score compares, is the same bit for bit
    a, b = map(np.array, columns)
    assume(np.ptp(a) > 0 and np.ptp(b) > 0)
    score = orient_reci(StandardColumn(a), StandardColumn(b))
    assert orient_reci(StandardColumn(b), StandardColumn(a)) == -score
    scaled = orient_reci(StandardColumn(np.ldexp(a, e_a)), StandardColumn(np.ldexp(b, e_b)))
    assert scaled.hex() == score.hex()


def test_reci_rejects_constant_column():
    data = np.column_stack([np.ones(50), np.arange(50.0)])
    with pytest.raises(ConstantColumn):
        _reci(data, 0, 1)


def test_binary_likelihood_margin_orients_treatment_edges():
    child_hits = parent_hits = 0
    trials = 60
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        n = 4000
        c1 = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        c2 = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        x = rng.normal(size=n)
        lat = c1 * x + 0.5 * rng.normal(size=n)
        t = (rng.random(n) < 1 / (1 + np.exp(-lat))).astype(float)
        m = c2 * t + 0.5 * rng.normal(size=n)
        child_hits += binary_direction_loglik(t, StandardColumn(m)) > 0.5
        parent_hits += binary_direction_loglik(t, StandardColumn(x)) <= 0.5
    assert child_hits >= int(0.8 * trials)
    assert parent_hits >= int(0.8 * trials)


def test_binary_likelihood_margin_ignores_units():
    # the margin of both generative models moves with log(scale) alike, so
    # a change of units of the continuous column cancels out of it
    rng = np.random.default_rng(9)
    n = 3000
    x = rng.normal(size=n)
    t = (rng.random(n) < 1 / (1 + np.exp(-x))).astype(float)
    m = 0.8 * t + 0.5 * rng.normal(size=n)
    for cont in (x, m):  # c -> t, then t -> c
        want = binary_direction_loglik(t, StandardColumn(cont))
        for scale in 10.0 ** np.arange(-9, 7):
            got = binary_direction_loglik(t, StandardColumn(cont * scale))
            assert got == pytest.approx(want, rel=1e-9), (scale, got, want)


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300])
def test_ci_test_and_orientation_on_a_column_far_from_unit_scale(scale):
    # the squares of such a column under- or overflow; its correlations and
    # orientation verdict must still be those at unit scale
    rng = np.random.default_rng(10)
    a = rng.uniform(-1, 1, size=2000)
    b = a**3 + 0.05 * rng.normal(size=2000)
    data = np.column_stack([a, b, b + rng.normal(size=2000)])
    far = data * [1.0, scale, 1.0]
    np.testing.assert_allclose(
        FisherZTester(far, CFG).corr, FisherZTester(data, CFG).corr, rtol=1e-12, atol=1e-15
    )
    assert _reci(far, 0, 1) == pytest.approx(_reci(data, 0, 1), rel=1e-9)


@pytest.mark.parametrize("label", [0.0, 1.0])
def test_binary_likelihood_margin_rejects_one_class(label):
    cont = np.random.default_rng(0).normal(size=40)
    with pytest.raises(DegenerateArms):
        binary_direction_loglik(np.full(40, label), StandardColumn(cont))


# ---------------------------------------------------------------------------
# local structure
# ---------------------------------------------------------------------------


def test_local_structure_oracle_collider_graph(collider_graph):
    parents, children = local_structure(
        DSepOracle(collider_graph), GraphOrienter(collider_graph), 1, [0, 2, 3], CFG
    )
    assert parents == {0}
    assert children == {2, 3}


def test_local_structure_empty_pc():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(2000, 3))
    tester = FisherZTester(data, CFG)
    orienter = DataOrienter(data, binary_col=data.shape[1])  # no treatment column
    assert local_structure(tester, orienter, 0, [1, 2], CFG) == (set(), set())


def test_local_structure_oracle_multivariable_node_d(multivariable_graph):
    parents, children = local_structure(
        DSepOracle(multivariable_graph),
        GraphOrienter(multivariable_graph),
        5,
        [n for n in range(10) if n != 5],
        CFG,
    )
    assert parents == {2, 4}
    assert children == {6, 8}


# ---------------------------------------------------------------------------
# structure_fit traversal
# ---------------------------------------------------------------------------


def _oracle_fit(graph, candidates):
    return structure_fit(
        DSepOracle(graph), GraphOrienter(graph), graph.t_node, graph.y_node, candidates, CFG
    )


def test_structure_fit_oracle_mediator(mediator_graph):
    res = _oracle_fit(mediator_graph, [0, 2])
    assert res.selected == (0,)  # M removed, X kept


def test_structure_fit_oracle_multivariable(multivariable_graph):
    res = _oracle_fit(multivariable_graph, [0, 1, 3, 4, 5, 6, 7, 9])
    assert set(res.selected) == {0, 1, 4, 7}
    assert set(res.forbidden) & {3, 5, 6, 9} == {3, 5, 6, 9}


def test_structure_fit_no_mediator_keeps_all():
    g = build_graph(4, [(0, 1), (0, 3), (1, 3)], t=1, y=3)  # direct T -> Y only
    res = _oracle_fit(g, [0, 2])
    assert res.selected == (0, 2)


def test_structure_fit_disconnected_treatment():
    g = build_graph(4, [(0, 3), (2, 3)], t=1, y=3)
    res = _oracle_fit(g, [0, 2])
    assert res.selected == (0, 2)
    assert set(res.forbidden) == {1}


def test_oracle_soundness_on_random_graphs():
    # with both oracles, the forbidden set is exactly the reachable part of
    # de(T) over discovered nodes, and removed columns stay inside it; and
    # pc_simple on the d-separation oracle is the set-by-set loop
    for seed in range(30):
        spec = ScmSpec(d=8, p_e=0.35, sigma=0.2, rho=0.5, gamma=True, m=1,
                       p_h=0, m_p=False, n=10, seed=seed)
        try:
            graph, _ = sample_or_retry(spec, np.random.default_rng(seed))
        except Exception:
            continue
        feats = graph.feature_nodes()
        for target in range(graph.d):
            others = [v for v in range(graph.d) if v != target]
            assert pc_simple(DSepOracle(graph), target, others, CFG) == _scalar_pc_simple(
                DSepOracle(graph), target, others, CFG
            )
        res = _oracle_fit(graph, feats)
        true_de = graph.descendants(graph.t_node)
        assert set(res.forbidden).issubset(true_de)
        removed = set(feats) - set(res.selected)
        assert removed == set(res.forbidden) & set(feats)
        assert removed.issubset(true_de)
        # every truly reachable discovered node was removed
        for node in removed:
            assert node in true_de
        assert set(res.forbidden) == {graph.t_node} | {child for _, child in res.edges}
        assert all(node in res.forbidden for node, _ in res.edges)


def test_frontier_visits_each_node_once(multivariable_graph):
    # a (target, member) pair classified twice would mean a node re-entered
    # the frontier and had its local structure recomputed
    calls = []
    orienter = GraphOrienter(multivariable_graph)

    class CountingOrienter:
        def is_child(self, target, member):
            calls.append((target, member))
            return orienter.is_child(target, member)

    structure_fit(
        DSepOracle(multivariable_graph), CountingOrienter(), 2, 8,
        [0, 1, 3, 4, 5, 6, 7, 9], CFG,
    )
    assert len(calls) == len(set(calls))


def test_walk_stops_at_the_outcomes_children():
    # T -> M -> Y, T -> C <- Y, C -> D, W -> {T, Y}: C is in ch(T) and ch(Y),
    # so the walk never learns C's local structure and never reaches D
    W, T, M, Y, C, D = range(6)
    graph = build_graph(6, [(W, T), (W, Y), (T, M), (T, C), (M, Y), (Y, C), (C, D)], t=T, y=Y)
    calls = []
    orienter = GraphOrienter(graph)

    class CountingOrienter:
        def is_child(self, target, member):
            calls.append((target, member))
            return orienter.is_child(target, member)

    res = structure_fit(DSepOracle(graph), CountingOrienter(), T, Y, [W, M, C, D], CFG)
    assert res.selected == (W, D)
    assert res.forbidden == {T, M, Y, C}
    assert res.edges == ((T, M), (T, C), (M, Y), (Y, C))
    assert calls and all(target not in (C, D) and D not in (target, member)
                         for target, member in calls)


def test_partial_graph_json():
    # the discovered partial graph is reported as the forbidden nodes and the
    # directed edges that reached them, and survives a JSON round trip
    W, T, M, Y, C, D = range(6)
    graph = build_graph(6, [(W, T), (W, Y), (T, M), (T, C), (M, Y), (Y, C), (C, D)], t=T, y=Y)
    res = structure_fit(DSepOracle(graph), GraphOrienter(graph), T, Y, [W, M, C, D], CFG)
    payload = res.to_dict()
    assert payload == {"nodes": [T, M, Y, C], "directed_edges": [[T, M], [T, C], [M, Y], [Y, C]]}
    assert json.loads(json.dumps(payload)) == payload


def test_walk_keeps_an_edge_into_the_treatment_as_reported(monkeypatch):
    # scripted local structures T -> A -> B, and B names T as its child: the
    # edges are those reported, (B, T) included, and the forbidden set is T
    # plus every child found, cycle or not
    T, A, B, Y, W = range(5)
    children = {T: {A}, A: {B}, B: {T}, Y: set()}
    monkeypatch.setattr(hteselect.structure_fit, "local_structure",
                        lambda tester, orienter, target, candidates, cfg: (set(), children[target]))
    res = structure_fit(None, None, T, Y, [A, B, W], CFG)
    assert res.edges == ((T, A), (A, B), (B, T))
    assert (T, B) not in res.edges
    assert res.forbidden == {T, A, B}
    assert res.selected == (W,)


# ---------------------------------------------------------------------------
# data-driven recovery on the canonical graphs
# ---------------------------------------------------------------------------


def fig1b_dataset(seed, n=4000):
    """Mediator graph with representative (clearly detectable) edge weights."""
    rng = np.random.default_rng(seed)
    coef = {}
    for edge in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        coef[edge] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    graph = build_graph(4, list(coef), t=1, y=3, mediators=(2,), coef=coef)
    spec = ScmSpec(d=4, p_e=0.5, sigma=0.0, rho=0.5, gamma=True, m=1,
                   p_h=0, m_p=False, n=n, seed=seed)
    ds = generate(graph, spec, rng)
    return graph, ds


def test_data_driven_mediator_recovery():
    excluded = kept = 0
    for seed in range(50):
        _, ds = fig1b_dataset(seed)
        stacked = np.column_stack([ds.x, ds.t, ds.y])
        res = structure_fit(FisherZTester(stacked, CFG), DataOrienter(stacked, binary_col=2),
                            2, 3, (0, 1), CFG)
        excluded += 1 not in res.selected  # column 1 holds the mediator node
        kept += 0 in res.selected
    assert excluded >= 40
    assert kept >= 40


# ---------------------------------------------------------------------------
# oracle adjustment sets
# ---------------------------------------------------------------------------


def test_oracle_adjustment_collider_graph(collider_graph):
    assert oracle_adjustment(collider_graph, "Valid").nodes == frozenset({0})
    assert oracle_adjustment(collider_graph, "Parents").nodes == frozenset({0})


def test_oracle_adjustment_multivariable(multivariable_graph):
    res = oracle_adjustment(multivariable_graph, "OSet")
    assert res.nodes == frozenset({1, 4, 7})
    assert not res.empty_causal_path
    # validity via the d-separation checker: the set blocks every noncausal
    # path once outgoing treatment edges are cut
    cut = build_graph(
        10,
        [(0, 2), (1, 2), (1, 8), (4, 5), (5, 6), (5, 8), (7, 8), (8, 9)],
        t=2,
        y=8,
    )
    assert d_separated(cut, 2, 8, tuple(sorted(res.nodes)))


def test_oracle_adjustment_no_causal_path():
    g = build_graph(4, [(0, 1), (0, 3), (2, 3)], t=1, y=3)
    res = oracle_adjustment(g, "OSet")
    assert res.nodes == frozenset()
    assert res.empty_causal_path


def test_reci_rejects_constant_column_whose_mean_does_not_round_back():
    # the mean of 0.1 in 50 rows is not 0.1, so numpy's deviation is not 0
    data = np.column_stack([np.full(50, 0.1), np.arange(50.0)])
    with pytest.raises(ConstantColumn):
        _reci(data, 0, 1)


def _orientation_data():
    """Columns for the orienter: a binary treatment (column 3), cubic and
    linear relations on several scales, a constant 0.1 (its mean does not
    round back to 0.1) and 0.1 plus noise at 1e-13."""
    rng = np.random.default_rng(12)
    n = 400
    x = rng.normal(size=n)
    t = (rng.random(n) < 1 / (1 + np.exp(-x))).astype(float)
    m = 0.8 * t + 0.5 * rng.normal(size=n)
    cube = x**3 + 0.3 * rng.normal(size=n)
    near = 0.1 + 1e-13 * rng.normal(size=n)
    return np.column_stack([x, 3e4 * cube, m, t, np.full(n, 0.1), near, rng.uniform(-1, 1, n)])


def _reference_reci(data, i, j):
    """``orient_reci`` as it was before columns were cached: each call
    standardizes both columns and builds both cubic bases on its own."""
    a, b = np.asarray(data[:, i], float), np.asarray(data[:, j], float)
    (mu_a, sd_a), (mu_b, sd_b) = column_moments(a), column_moments(b)
    if sd_a == 0.0 or sd_b == 0.0:
        raise ConstantColumn(f"columns {i}, {j} must be non-constant")
    a, b = (a - mu_a) / sd_a, (b - mu_b) / sd_b

    def mse(cause, effect):
        design = np.column_stack([np.ones_like(cause), cause, cause**2, cause**3])
        w = np.linalg.solve(design.T @ design + 1e-8 * np.eye(4), design.T @ effect)
        return float(np.mean((effect - design @ w) ** 2))

    err_ij, err_ji = mse(a, b), mse(b, a)
    diff = err_ij - err_ji
    gap = abs(diff) / max(err_ij, err_ji, 1e-300)
    if abs(diff) <= RECI_TIE_TOL:
        return "i_to_j" if i < j else "j_to_i", True, gap
    return "i_to_j" if diff < 0 else "j_to_i", False, gap


def _reference_score(data, i, j):
    """The signed score that ``_reference_reci``'s triple implies."""
    direction, tie, gap = _reference_reci(data, i, j)
    return 0.0 if tie else gap if direction == "i_to_j" else -gap


def _reference_is_child(data, binary_col, target, member):
    """Whether ``member`` is a child of ``target``, by the verdict rule on
    ``_reference_reci``'s (direction, tie, gap) triple, from uncached columns."""
    if binary_col in (target, member):
        other = member if target == binary_col else target
        cont = StandardColumn(data[:, other])
        causes = binary_direction_loglik(data[:, binary_col], cont) > LR_THRESHOLD
        return causes == (target == binary_col)
    direction, tie, gap = _reference_reci(data, target, member)
    return direction == "i_to_j" and not tie and gap >= CHILD_GATE


def _outcome(call, *args):
    try:
        return call(*args)
    except ConstantColumn as exc:
        return type(exc)


def test_cached_orientation_matches_uncached_reference():
    """One orienter over every ordered pair, twice, gives each verdict and
    score of the reference that standardizes and cubes afresh per call, bit
    for bit."""
    data = _orientation_data()
    orienter = DataOrienter(data, binary_col=3)
    pairs = [(i, j) for i in range(data.shape[1]) for j in range(data.shape[1]) if i != j]
    for i, j in pairs * 2:
        assert _outcome(orienter.is_child, i, j) == _outcome(_reference_is_child, data, 3, i, j)
        if 3 in (i, j):
            continue
        want = _outcome(_reference_score, data, i, j)
        assert _outcome(_reci, data, i, j) == want
        assert _outcome(orient_reci, orienter.column(i), orienter.column(j)) == want


def test_orienter_standardizes_and_cubes_each_column_once(monkeypatch):
    made, cubed = Counter(), Counter()
    data = _orientation_data()

    class Counting(StandardColumn):
        def __init__(self, column):
            super().__init__(column)
            # a column of the C-order data starts at its index times 8 bytes
            self.col = (column.ctypes.data - data.ctypes.data) // data.itemsize
            made[self.col] += 1

        @functools.cached_property
        def basis(self):
            cubed[self.col] += 1
            return super().basis

    monkeypatch.setattr(hteselect.structure_fit, "StandardColumn", Counting)
    orienter = DataOrienter(data, binary_col=3)
    for i in range(data.shape[1]):
        for j in range(data.shape[1]):
            if i != j:
                _outcome(orienter.is_child, i, j)
                _outcome(orienter.is_child, i, j)
    assert made == Counter({0: 1, 1: 1, 2: 1, 4: 1, 5: 1, 6: 1})  # not the treatment
    assert cubed == Counter({0: 1, 1: 1, 2: 1, 5: 1, 6: 1})  # not the constant column either
