
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minweight.trees as trees_mod
from minweight import weights
from minweight.errors import CapacityError
from minweight.experiments import SANDWICH_SLACK
from minweight.trees import (
    CompleteInstance,
    all_labelled_trees,
    exact_min_tree,
    greedy_spanning_path,
    kruskal_mst,
    light_edge_count,
    min_tree_upper_bound,
    prufer_mst_weight,
    sample_yj,
    threshold_lower_bound,
)
from minweight.weights import SeedContext, TreeWeightSpec, TrialBlock
from reference import bernoulli_upper_bound, envelope_d2, prufer_to_edges, yj_from_matrix, yj_trial

# Small instance worked through by hand: the greedy walk is 1 -> 3 -> 4 -> 2.
FROZEN4 = [
    [0.0, 0.9, 0.2, 0.8],
    [0.9, 0.0, 0.5, 0.1],
    [0.2, 0.5, 0.0, 0.3],
    [0.8, 0.1, 0.3, 0.0],
]

# exact_min_tree(n=5, tau=2) at alpha=0.5, seed 11, trial 0; frozen from an
# independent enumeration of all adjacent edge pairs.
GOLDEN_N5_TAU2 = 0.3380741283086015


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, u):
        p = self.parent
        while p[u] != u:
            p[u] = p[p[u]]
            u = p[u]
        return u

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[rv] = ru
        return True


def kruskal_oracle(inst):
    """Reference MST: scan edges by (weight, lo, hi) and join components.

    Returns the edge set and the total added in sorted-key order.
    """
    W = inst.matrix()
    lo0, hi0 = np.triu_indices(inst.n, 1)
    w = W[lo0, hi0]
    uf = UnionFind(inst.n + 1)
    edges = []
    for e in np.lexsort((hi0, lo0, w)):
        a, b = int(lo0[e]) + 1, int(hi0[e]) + 1
        if uf.union(a, b):
            edges.append((a, b))
            if len(edges) == inst.n - 1:
                break
    total = 0.0
    for a, b in sorted(edges):
        total += inst.matrix()[a - 1, b - 1]
    return set(edges), total


def from_matrix(matrix, spec=None):
    """Instance whose weight matrix is a given symmetric matrix, with +inf
    set on its diagonal; no seed stands behind it."""
    m = np.array(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError("matrix must be square with at least 2 vertices")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric")
    if not np.isfinite(m[~np.eye(m.shape[0], dtype=bool)]).all():
        raise ValueError("off-diagonal weights must be finite")
    np.fill_diagonal(m, np.inf)
    inst = CompleteInstance(m.shape[0], spec, None)
    inst._matrix = m
    return inst


def frozen4():
    return from_matrix(FROZEN4, spec=TreeWeightSpec(alpha=0.5))


def seeded(n, seed, trial=0, alpha=0.5, m_min=1.0, het=False):
    return CompleteInstance(
        n, TreeWeightSpec(alpha=alpha, m_min=m_min, heterogeneous=het), SeedContext(seed, trial)
    )


def test_greedy_frozen_matrix():
    res = greedy_spanning_path(frozen4())
    assert res.order == (1, 3, 4, 2)
    assert res.step_weights == (0.2, 0.3, 0.1)
    assert res.prefix_sums == pytest.approx((0.2, 0.5, 0.6))


def test_greedy_two_vertices():
    inst = seeded(2, 5)
    res = greedy_spanning_path(inst)
    assert res.order == (1, 2)
    assert res.step_weights == (inst.matrix()[0, 1],)


def test_greedy_structure():
    inst = seeded(40, 17, het=True, m_min=0.5)
    res = greedy_spanning_path(inst)
    assert sorted(res.order) == list(range(1, 41))
    assert res.order[0] == 1
    assert len(res.step_weights) == 39
    # each step is the minimum to an unvisited vertex
    for idx in range(5):
        cur = res.order[idx]
        seen = set(res.order[: idx + 1])
        expected = min(inst.matrix()[cur - 1, a - 1] for a in range(1, 41) if a not in seen)
        assert res.step_weights[idx] == expected
    # prefix sums nondecreasing
    assert all(b >= a for a, b in zip(res.prefix_sums, res.prefix_sums[1:]))


def test_upper_bound_frozen():
    inst = frozen4()
    path = greedy_spanning_path(inst)
    assert min_tree_upper_bound(inst, 2, path) == 0.5
    assert min_tree_upper_bound(inst, 1, path) == 0.2
    assert min_tree_upper_bound(inst, 3, path) == path.prefix_sums[-1]
    with pytest.raises(ValueError):
        min_tree_upper_bound(inst, 0, path)
    with pytest.raises(ValueError):
        min_tree_upper_bound(inst, 4, path)


def test_kruskal_frozen():
    res = kruskal_mst(frozen4())
    assert set(res.edges) == {(2, 4), (1, 3), (3, 4)}
    assert res.total_weight == pytest.approx(0.6)
    assert res.edge_count == 3


def test_kruskal_three_vertices():
    w = [[0.0, 0.7, 0.4], [0.7, 0.0, 0.9], [0.4, 0.9, 0.0]]
    res = kruskal_mst(from_matrix(w))
    assert res.total_weight == pytest.approx(0.7 + 0.4)


@pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
@pytest.mark.parametrize("m_min,het", [(1.0, False), (0.5, True)])
def test_kruskal_mst_matches_oracle(n, m_min, het):
    for alpha in (0.3, 0.5, 0.7):
        inst = seeded(n, 31 + n, trial=7, alpha=alpha, m_min=m_min, het=het)
        res = kruskal_mst(inst)
        edges, total = kruskal_oracle(inst)
        assert set(res.edges) == edges
        assert res.total_weight == total  # bit-identical, same summation order
        assert res.edge_count == n - 1


def test_kruskal_is_tree():
    inst = seeded(30, 3)
    res = kruskal_mst(inst)
    uf = UnionFind(31)
    for a, b in res.edges:
        assert uf.union(a, b)  # acyclic
    roots = {uf.find(v) for v in range(1, 31)}
    assert len(roots) == 1  # connected
    # totals re-sum within accumulation tolerance
    resum = sum(inst.matrix()[a - 1, b - 1] for a, b in res.edges)
    assert abs(resum - res.total_weight) <= 1e-12 * res.edge_count


def test_threshold_lower_bound_frozen():
    inst = frozen4()
    # gamma = 0.25 makes the threshold (0.25/4)**0.5 = 0.25; two edges below it
    assert light_edge_count(inst, 0.25) == 2
    assert threshold_lower_bound(inst, 3, 0.25) == pytest.approx(0.25)
    # huge gamma counts every edge
    assert threshold_lower_bound(inst, 3, 4000.0) == 0.0
    with pytest.raises(ValueError):
        threshold_lower_bound(inst, 3, 0.0)


def test_light_edge_count_concentration():
    # overflow frequency of the light-edge count against the reference
    # Bernoulli tail bound, the way the counting lower bound uses it:
    # m = C(n,2) pairs, per-edge probability at most D2*gamma/n, eps = 1/4
    import math as _math

    n, gamma, eps, reps = 64, 1.0, 0.25, 400
    spec = TreeWeightSpec(alpha=0.5)
    m = n * (n - 1) // 2
    mu2 = envelope_d2(spec) * gamma / n
    cutoff = m * mu2 * (1 + eps)
    overflow = 0
    for seed_off in range(reps):
        inst = CompleteInstance(n, spec, SeedContext(777, seed_off))
        if light_edge_count(inst, gamma) > cutoff:
            overflow += 1
    freq = overflow / reps
    bound = bernoulli_upper_bound(m, mu2, eps)
    se = _math.sqrt(max(freq * (1 - freq), 1e-12) / reps)
    assert freq <= bound + 3 * se


def test_exact_min_tree_examples():
    inst = frozen4()
    assert exact_min_tree(inst, 1).total_weight == pytest.approx(0.1)
    assert exact_min_tree(inst, 2).total_weight == pytest.approx(0.4)
    full = exact_min_tree(inst, 3)
    assert full.total_weight == kruskal_mst(inst).total_weight
    assert full.edge_count == 3


def test_exact_min_tree_golden_seed11():
    inst = seeded(5, 11)
    res = exact_min_tree(inst, 2)
    assert res.total_weight == GOLDEN_N5_TAU2
    assert res.edge_count == 2


def test_exact_equals_kruskal_spanning():
    for seed in range(8):
        for n in (5, 6, 7):
            inst = seeded(n, 100 + seed)
            assert exact_min_tree(inst, n - 1).total_weight == kruskal_mst(inst).total_weight


def test_exact_min_tree_guards(monkeypatch):
    inst = seeded(13, 1)
    with pytest.raises(ValueError):
        exact_min_tree(inst, 3)
    inst = seeded(12, 1)
    monkeypatch.setattr(trees_mod, "EXACT_STEP_BUDGET", 10)
    with pytest.raises(CapacityError):
        exact_min_tree(inst, 6)


def test_sandwich_and_monotonicity():
    gammas = (0.25, 0.5, 1.0, 2.0)
    for seed in range(6):
        for n in (5, 6, 7):
            inst = seeded(n, 200 + seed, het=(seed % 2 == 0), m_min=0.5)
            path = greedy_spanning_path(inst)
            prev = 0.0
            for tau in range(1, n):
                exact = exact_min_tree(inst, tau).total_weight
                upper = min_tree_upper_bound(inst, tau, path)
                assert exact <= upper + 1e-15
                for g in gammas:
                    assert threshold_lower_bound(inst, tau, g) <= exact + 1e-15
                assert exact >= prev  # nondecreasing in tau
                prev = exact


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(2, 8),
    alpha=st.floats(0.05, 0.95),
    m_min=st.floats(0.1, 1.0),
    het=st.booleans(),
    gamma=st.floats(0.05, 8.0),
)
def test_bounds_sandwich_exact_property(seed, n, alpha, m_min, het, gamma):
    inst = seeded(n, seed, alpha=alpha, m_min=m_min, het=het)
    path = greedy_spanning_path(inst)
    slack = SANDWICH_SLACK * n
    for tau in range(1, n):
        exact = exact_min_tree(inst, tau).total_weight
        assert threshold_lower_bound(inst, tau, gamma) <= exact + slack
        assert exact <= min_tree_upper_bound(inst, tau, path) + slack
    # the loop ends at tau = n - 1, the spanning tree
    assert kruskal_mst(inst).total_weight == exact


def test_sample_yj():
    # the rule on the frozen matrix: from vertex 3, vertices 2 and 4 remain
    assert yj_from_matrix(frozen4().matrix(), (1, 3)) == 0.3
    spec = TreeWeightSpec(alpha=0.5)
    for j in (0, 4):
        with pytest.raises(ValueError, match="prefix length"):
            sample_yj(TrialBlock(SeedContext(1), 2), spec, 4, j)


@pytest.mark.parametrize("het", [False, True])
@pytest.mark.parametrize("n", [2, 17, 64])
def test_sample_yj_block_matches_per_trial_reference(n, het):
    # the block kernel hashes one row per trial; each equals the rule on that
    # trial's full matrix at its scalar Fisher-Yates prefix, bit for bit
    spec = TreeWeightSpec(alpha=0.3, m_min=0.25 if het else 1.0, heterogeneous=het)
    for j in sorted({1, n // 2 or 1, n - 1}):
        # one-trial blocks and a longer block over the same trials agree
        block = TrialBlock(SeedContext(2**63 + 7, 40), 6)
        expected = [yj_trial(ctx, spec, n, j) for ctx in block.contexts()]
        assert sample_yj(block, spec, n, j) == expected
        assert [sample_yj(TrialBlock(ctx, 1), spec, n, j)[0] for ctx in block.contexts()] == expected


def test_tree_array_budget():
    side = math.isqrt(weights.ARRAY_BYTES // 8)
    weights.require_array("a matrix", side * side)
    weights.require_array("a row", weights.ARRAY_BYTES // 8)
    with pytest.raises(CapacityError, match="a matrix takes .* budget"):
        weights.require_array("a matrix", (side + 1) * (side + 1))
    with pytest.raises(CapacityError, match="a row takes .* budget"):
        weights.require_array("a row", weights.ARRAY_BYTES // 8 + 1)


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        from_matrix([[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(ValueError):
        from_matrix([[0.0]])
    with pytest.raises(ValueError, match="finite"):
        from_matrix([[0.0, np.inf, 0.1], [np.inf, 0.0, 0.2], [0.1, 0.2, 0.0]])


def test_prufer_decode_known_tree():
    # sequence (4, 4) on 4 vertices is the star rooted at 4
    assert set(prufer_to_edges((4, 4), 4)) == {(1, 4), (2, 4), (3, 4)}
    trees = all_labelled_trees(4)
    assert trees.shape == (16, 3, 2)
    uniq = {tuple(map(tuple, t)) for t in trees.tolist()}
    assert len(uniq) == 16  # Cayley: 4**2 labelled trees


def test_kruskal_matches_prufer_enumeration():
    trees = all_labelled_trees(7)
    assert trees.shape[0] == 7**5
    for seed in range(5):
        inst = seeded(7, 300 + seed)
        assert kruskal_mst(inst).total_weight == prufer_mst_weight(inst)


@pytest.mark.parametrize("n", range(2, 8))
def test_all_labelled_trees_match_scalar_decode(n):
    # row r is the r-th Prufer sequence in itertools.product order
    expected = [sorted(prufer_to_edges(seq, n)) for seq in itertools.product(range(1, n + 1), repeat=n - 2)]
    got = all_labelled_trees(n)
    assert got.dtype == np.int64
    assert got.tolist() == [[list(e) for e in tree] for tree in expected]


def test_all_labelled_trees_n8_distinct_and_capped():
    trees = all_labelled_trees(8)
    assert trees.shape == (8**6, 7, 2)
    assert len(np.unique(trees.reshape(len(trees), -1), axis=0)) == 8**6
    with pytest.raises(CapacityError):
        all_labelled_trees(9)
    with pytest.raises(ValueError):
        all_labelled_trees(1)
