"""Algorithms on the weighted complete graph K_n.

Vertices are labelled 1..n. The minimum-weight tree with at least tau edges
is attacked from three sides: a greedy spanning path whose tau-edge prefix is
a feasible upper bound, a threshold edge count that certifies a lower bound,
and an exact subset-enumeration oracle for desk-scale n. Every spanning tree,
the subset oracle's included, comes from one batched dense Prim kernel on
the cached weight matrix. The spanning tree has an oracle of its own that
shares no code with Prim: all n**(n-2) labelled trees, decoded from their
Prufer sequences at once in numpy and cached as flat edge keys, whose totals
are gathered from the flattened matrix (n <= 8). The spanning routine keeps
the name kruskal_mst because the golden report digests and the benchmark
look it up by that name. A CompleteInstance is one trial, so its
SeedContext has count 1. The nearest-unvisited-edge minima Y_j come from a
block kernel, sample_yj, that hashes one row per trial of a SeedContext of
any count and builds no matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import CapacityError
from .weights import SeedContext, TreeWeightSpec, weight_matrix, weights_from_vertex


class CompleteInstance:
    """One realization of K_n weights under (spec, ctx), read through its
    cached weight matrix; ctx must hold one trial."""

    def __init__(self, n: int, spec: TreeWeightSpec, ctx: SeedContext):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        if ctx.count != 1:
            raise ValueError(f"an instance is one trial, got a context of {ctx.count}")
        self.n = n
        self.spec = spec
        self.ctx = ctx
        self._matrix = None

    def matrix(self) -> np.ndarray:
        """Weight matrix with +inf on the diagonal, built on first use."""
        if self._matrix is None:
            self._matrix = weight_matrix(self.spec, self.ctx, self.n)
        return self._matrix


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


def _tree_totals(w: np.ndarray) -> np.ndarray:
    """Total weight of each tree, adding its edges in sorted-key order.

    w[t, e] is the weight of edge e of tree t, with each row in sorted-key
    order. Columns are added one at a time because np.sum adds pairwise,
    which can change the last bit of a total.
    """
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
    W = inst.matrix()
    lo, hi = _prim(W[None])
    total = _tree_totals(W[lo, hi])[0]
    return _tree_result(lo[0], hi[0], total, np.arange(1, inst.n + 1))


def light_edge_count(inst: CompleteInstance, gamma: float) -> int:
    """Number of edges of weight strictly below (gamma/n)**alpha (full scan)."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
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


# exact_min_tree refuses an enumeration of more elementary steps than this
EXACT_STEP_BUDGET = 10**8


def exact_min_tree(inst: CompleteInstance, tau: int) -> TreeResult:
    """Exact minimum over trees with at least tau edges, by subset enumeration.

    With strictly positive weights the optimum has exactly tau edges and
    spans tau + 1 vertices, so the answer is the best MST over all
    (tau+1)-subsets, found by one batched Prim run. Ties go to the
    lexicographically smallest subset. Only feasible at desk scale: n <= 12
    and C(n, tau+1)*(tau+1)**2 within EXACT_STEP_BUDGET.
    """
    n = inst.n
    if not 1 <= tau <= n - 1:
        raise ValueError(f"tau must lie in 1..{n - 1}, got {tau}")
    if n > 12:
        raise ValueError(f"exact_min_tree is limited to n <= 12, got {n}")
    steps = math.comb(n, tau + 1) * (tau + 1) ** 2
    if steps > EXACT_STEP_BUDGET:
        raise CapacityError(
            f"enumeration would take {steps} elementary steps, budget is {EXACT_STEP_BUDGET}"
        )
    # increasing subsets keep local edge keys in the order of the global ones
    subsets = np.array(list(itertools.combinations(range(n), tau + 1)), dtype=np.intp)
    W = inst.matrix()[subsets[:, :, None], subsets[:, None, :]]
    lo, hi = _prim(W)
    totals = _tree_totals(W[np.arange(len(W))[:, None], lo, hi])
    best = int(np.argmin(totals))
    return _tree_result(lo[best], hi[best], totals[best], subsets[best] + 1)


def _prefix_block(block: SeedContext, n: int, j: int) -> np.ndarray:
    """Vertices 1..n of each trial of block after j partial Fisher-Yates steps.

    Row t is trial t's permutation, as a uint64 array of shape (count, n):
    its first j entries are the trial's uniform ordered j-prefix and the rest
    are the vertices outside it. Swap a of every row takes column a and
    column a + h % (n - a), where h hashes (STREAM_PREFIX, master seed,
    trial, a); all count * j words are hashed at once.
    """
    steps = np.arange(j, dtype=np.uint64)
    h = rng.hash_words_vec(rng.STREAM_PREFIX, block.master_seed, block.trials, steps)
    # flat index of the entry each row swaps into column a, one row per step
    other = (steps + h % (np.uint64(n) - steps)).astype(np.intp).T + np.arange(block.count) * n
    verts = np.tile(np.arange(1, n + 1, dtype=np.uint64), (block.count, 1))
    flat = verts.reshape(-1)
    for a, there in enumerate(other):
        moved = flat[there]
        flat[there] = verts[:, a]
        verts[:, a] = moved
    return verts


def sample_yj(block: SeedContext, spec: TreeWeightSpec, n: int, j: int) -> list:
    """Y_j of each trial of block: the least weight on K_n from the last vertex
    of the trial's random j-prefix to a vertex outside the prefix.

    With j prefix vertices there are n - j candidates, so j must lie in
    1..n-1. One weights_from_vertex call hashes every row's last prefix
    vertex against its n - j outside vertices; no weight matrix is built.
    Returns one float per trial, in trial order.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"prefix length must lie in 1..{n - 1}, got {j}")
    verts = _prefix_block(block, n, j)
    return weights_from_vertex(spec, block, verts[:, j - 1 : j], verts[:, j:]).min(axis=1).tolist()


# -- Prufer-sequence enumeration oracle ----------------------------------------


@lru_cache(maxsize=4)
def _labelled_tree_keys(n: int) -> np.ndarray:
    """0-based flat edge keys lo * n + hi of all n**(n-2) labelled trees.

    Row r decodes the r-th Prufer sequence in itertools.product order, and
    each row is sorted by key. All sequences are decoded at once: each of
    the n - 2 steps joins the smallest leaf of every row to that row's next
    sequence entry, and the last edge joins the two vertices left with
    degree 1. Cached and read-only: the enumeration is reused across seeds.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 8:
        raise CapacityError(f"enumerating {n}**{n - 2} trees is out of budget")
    rows = n ** (n - 2)
    seqs = np.indices((n,) * (n - 2)).reshape(n - 2, rows)
    r = np.arange(rows)
    degree = np.ones((rows, n), dtype=np.int8)
    for s in seqs:
        degree[r, s] += 1
    lo = np.empty((rows, n - 1), dtype=np.int64)
    hi = np.empty_like(lo)
    for step, s in enumerate(seqs):
        leaf = np.argmax(degree == 1, axis=1)
        lo[:, step] = np.minimum(leaf, s)
        hi[:, step] = np.maximum(leaf, s)
        degree[r, leaf] -= 1
        degree[r, s] -= 1
    last = degree == 1
    lo[:, -1] = np.argmax(last, axis=1)
    hi[:, -1] = n - 1 - np.argmax(last[:, ::-1], axis=1)
    keys = np.sort(lo * n + hi, axis=1)
    keys.flags.writeable = False
    return keys


def prufer_mst_weight(inst: CompleteInstance) -> float:
    """Minimum spanning tree weight by full labelled-tree enumeration.

    Gathers each tree's edge weights from the flat weight matrix at its
    cached keys. Each total comes from the same sorted-key sum as
    kruskal_mst, so the two agree bit for bit on the optimal tree.
    """
    w = inst.matrix().ravel()[_labelled_tree_keys(inst.n)]
    return float(_tree_totals(w).min())
