"""Algorithms on the weighted complete graph K_n.

Vertices are labelled 1..n. The minimum-weight tree with at least tau edges
is attacked from three sides: a greedy spanning path whose tau-edge prefix is
a feasible upper bound, a threshold edge count that certifies a lower bound,
and an exact subset-enumeration oracle for desk-scale n. Every spanning tree
comes from one batched dense Prim kernel on the cached weight matrix, and a
Prufer-sequence full enumeration double-checks it at tiny n. The spanning
routine keeps the name kruskal_mst because the golden report digests and the
benchmark look it up by that name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .weights import SeedContext, TreeWeightSpec, weight_matrix, weights_from_vertex


class CompleteInstance:
    """One realization of K_n weights, read through its cached weight matrix.

    Build either from (n, spec, ctx) for keyed sampling, or from an explicit
    symmetric matrix via :meth:`from_matrix` (the frozen-matrix test hook).
    """

    def __init__(self, n: int, spec: TreeWeightSpec, ctx: SeedContext):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        self.n = n
        self.spec = spec
        self.ctx = ctx
        self._matrix = None

    @classmethod
    def from_matrix(cls, matrix, spec: TreeWeightSpec | None = None) -> "CompleteInstance":
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("matrix must be square with at least 2 vertices")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric")
        if not np.isfinite(m[~np.eye(m.shape[0], dtype=bool)]).all():
            raise ValueError("off-diagonal weights must be finite")
        inst = cls.__new__(cls)
        inst.n = m.shape[0]
        inst.spec = spec
        inst.ctx = None
        inst._matrix = m.copy()
        np.fill_diagonal(inst._matrix, np.inf)
        return inst

    def matrix(self) -> np.ndarray:
        """Weight matrix with +inf on the diagonal, built on first use."""
        if self._matrix is None:
            self._matrix = weight_matrix(self.spec, self.ctx, self.n)
        return self._matrix

    def weight(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError(f"self-loop ({i},{i}) has no weight")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"vertex indices must lie in 1..{self.n}, got ({i},{j})")
        return float(self.matrix()[i - 1, j - 1])


@dataclass(frozen=True)
class TreeResult:
    """A tree as an edge list sorted by key; total_weight sums in that order."""

    edges: tuple
    total_weight: float
    edge_count: int


@dataclass(frozen=True)
class GreedyPathResult:
    order: tuple
    step_weights: tuple
    prefix_sums: tuple


def _prim(W: np.ndarray):
    """Minimum spanning tree of each matrix in a stack W[s, m, m].

    W holds finite weights off the diagonal and +inf on it. Each step adds,
    per tree, the first vertex of least best-link weight; links move only on
    a strictly smaller weight. Returns the 0-based edge keys (lo, hi), each
    [s, m-1] and sorted by key along each row.
    """
    s, m, _ = W.shape
    r = np.arange(s)
    outside = np.ones((s, m), dtype=bool)
    outside[:, 0] = False
    best = W[:, 0].copy()
    link = np.zeros((s, m), dtype=np.intp)
    for _ in range(m - 1):
        v = np.argmin(best, axis=1)
        outside[r, v] = False
        best[r, v] = np.inf
        row = W[r, v]
        closer = (row < best) & outside
        np.copyto(link, v[:, None], where=closer)
        np.copyto(best, row, where=closer)
    # a vertex's link is frozen once it joins, so link[v] is its tree parent
    child = np.arange(1, m)
    key = np.sort(np.minimum(link[:, 1:], child) * m + np.maximum(link[:, 1:], child), axis=1)
    return np.divmod(key, m)


def _tree_totals(W: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Total weight of each tree, adding its edges in sorted-key order.

    W is a stack [s, m, m], with s = 1 when all trees share one matrix; lo
    and hi are 0-based edge keys [t, k], sorted by key along each row.
    Columns are added one at a time because np.sum adds pairwise, which can
    change the last bit of a total.
    """
    w = W[np.arange(W.shape[0])[:, None], lo, hi]
    totals = w[:, 0]
    for col in range(1, w.shape[1]):
        totals = totals + w[:, col]
    return totals


def _tree_result(lo, hi, total, labels) -> TreeResult:
    edges = tuple((int(labels[a]), int(labels[b])) for a, b in zip(lo, hi))
    return TreeResult(edges=edges, total_weight=float(total), edge_count=len(edges))


def greedy_spanning_path(inst: CompleteInstance) -> GreedyPathResult:
    """Incremental nearest-unvisited-vertex spanning path from vertex 1.

    Ties break toward the smallest vertex index. Reads one matrix row per
    step.
    """
    n = inst.n
    W = inst.matrix()
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    order = [1]
    steps = []
    prefix = []
    acc = 0.0
    cur = 1
    for _ in range(n - 1):
        row = np.where(visited, np.inf, W[cur - 1])
        nxt0 = int(np.argmin(row))
        w = float(row[nxt0])
        visited[nxt0] = True
        cur = nxt0 + 1
        order.append(cur)
        steps.append(w)
        acc += w
        prefix.append(acc)
    return GreedyPathResult(order=tuple(order), step_weights=tuple(steps), prefix_sums=tuple(prefix))


def min_tree_upper_bound(inst: CompleteInstance, tau: int, path: GreedyPathResult) -> float:
    """Weight of the first tau steps of the greedy path; a feasible tau-edge tree."""
    if not 1 <= tau <= inst.n - 1:
        raise ValueError(f"tau must lie in 1..{inst.n - 1}, got {tau}")
    return path.prefix_sums[tau - 1]


def kruskal_mst(inst: CompleteInstance) -> TreeResult:
    """Exact minimum spanning tree, computed by the dense Prim kernel.

    Edges come back sorted by key and the total adds them in that order.
    The name is kept because the golden report digests and the benchmark
    refer to it; with distinct weights the tree is Kruskal's.
    """
    W = inst.matrix()[None]
    lo, hi = _prim(W)
    total = _tree_totals(W, lo, hi)[0]
    return _tree_result(lo[0], hi[0], total, np.arange(1, inst.n + 1))


def light_edge_count(inst: CompleteInstance, gamma: float) -> int:
    """Number of edges of weight strictly below (gamma/n)**alpha (full scan)."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if inst.spec is None:
        raise ValueError("light_edge_count needs a weight spec for alpha")
    threshold = (gamma / inst.n) ** inst.spec.alpha
    # the matrix is symmetric with +inf on the diagonal: each edge counts twice
    return int(np.count_nonzero(inst.matrix() < threshold)) // 2


def threshold_lower_bound(inst: CompleteInstance, tau: int, gamma: float) -> float:
    """Certified lower bound from counting light edges.

    Counts R_tot = #{e : w(e) < (gamma/n)**alpha} over all edges and returns
    max(0, tau - R_tot) * (gamma/n)**alpha: a tree with at least tau edges
    carries at least tau - R_tot edges of weight >= threshold. The inequality
    is strict (<) in the count.
    """
    if not 1 <= tau <= inst.n - 1:
        raise ValueError(f"tau must lie in 1..{inst.n - 1}, got {tau}")
    r_tot = light_edge_count(inst, gamma)
    threshold = (gamma / inst.n) ** inst.spec.alpha
    return max(0, tau - r_tot) * threshold


def exact_min_tree(inst: CompleteInstance, tau: int, budget: int = 10**8) -> TreeResult:
    """Exact minimum over trees with at least tau edges, by subset enumeration.

    With strictly positive weights the optimum has exactly tau edges and
    spans tau + 1 vertices, so the answer is the best MST over all
    (tau+1)-subsets, found by one batched Prim run. Ties go to the
    lexicographically smallest subset. Only feasible at desk scale: n <= 12
    and C(n, tau+1)*(tau+1)**2 within the step budget.
    """
    n = inst.n
    if not 1 <= tau <= n - 1:
        raise ValueError(f"tau must lie in 1..{n - 1}, got {tau}")
    if n > 12:
        raise ValueError(f"exact_min_tree is limited to n <= 12, got {n}")
    steps = math.comb(n, tau + 1) * (tau + 1) ** 2
    if steps > budget:
        raise CapacityError(
            f"enumeration would take {steps} elementary steps, budget is {budget}"
        )
    # increasing subsets keep local edge keys in the order of the global ones
    subsets = np.array(list(itertools.combinations(range(n), tau + 1)), dtype=np.intp)
    W = inst.matrix()[subsets[:, :, None], subsets[:, None, :]]
    lo, hi = _prim(W)
    totals = _tree_totals(W, lo, hi)
    best = int(np.argmin(totals))
    return _tree_result(lo[best], hi[best], totals[best], subsets[best] + 1)


def sample_yj(inst: CompleteInstance, prefix) -> float:
    """Minimum edge weight from the last prefix vertex to any vertex outside it.

    The whole prefix is excluded from the candidate set, so with j prefix
    vertices there are n - j candidates and j must stay at most n - 1.
    """
    prefix = tuple(prefix)
    j = len(prefix)
    if not 1 <= j <= inst.n - 1:
        raise ValueError(f"prefix length must lie in 1..{inst.n - 1}, got {j}")
    if len(set(prefix)) != j:
        raise ValueError("prefix entries must be distinct")
    for a in prefix:
        if not 1 <= a <= inst.n:
            raise ValueError(f"prefix entry {a} outside 1..{inst.n}")
    excluded = set(prefix)
    targets = np.array([a for a in range(1, inst.n + 1) if a not in excluded])
    # single-row query: use the matrix only if it is already materialized
    m = inst._matrix
    if m is not None:
        return float(m[prefix[-1] - 1, targets - 1].min())
    return float(weights_from_vertex(inst.spec, inst.ctx, prefix[-1], targets).min())


# -- Prufer-sequence enumeration oracle ----------------------------------------


def prufer_to_edges(seq, n: int) -> tuple:
    """Decode a Prufer sequence into the edge list of its labelled tree."""
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        for leaf in range(1, n + 1):
            if degree[leaf] == 1:
                edges.append((leaf, s) if leaf < s else (s, leaf))
                degree[leaf] -= 1
                degree[s] -= 1
                break
    u, v = [x for x in range(1, n + 1) if degree[x] == 1]
    edges.append((u, v))
    return tuple(edges)


@lru_cache(maxsize=4)
def all_labelled_trees(n: int) -> np.ndarray:
    """Edge lists of all n**(n-2) labelled trees, edges sorted by key.

    Shaped (n**(n-2), n-1, 2) with 1-based vertex labels. Cached: the
    enumeration is reused across seeds.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return np.array([[[1, 2]]], dtype=np.int64)
    if n > 8:
        raise CapacityError(f"enumerating {n}**{n - 2} trees is out of budget")
    trees = []
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        trees.append(sorted(prufer_to_edges(seq, n)))
    return np.array(trees, dtype=np.int64)


def prufer_mst_weight(inst: CompleteInstance) -> float:
    """Minimum spanning tree weight by full labelled-tree enumeration.

    Each tree's total comes from the same sorted-key sum as kruskal_mst, so
    the two agree bit for bit on the optimal tree.
    """
    trees = all_labelled_trees(inst.n)
    totals = _tree_totals(inst.matrix()[None], trees[:, :, 0] - 1, trees[:, :, 1] - 1)
    return float(totals.min())
