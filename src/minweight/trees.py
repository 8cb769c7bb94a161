"""Algorithms on the weighted complete graph K_n.

Vertices are labelled 1..n. The minimum-weight tree with at least tau edges
is attacked from three sides: a greedy spanning path whose tau-edge prefix is
a feasible upper bound, a threshold edge count that certifies a lower bound,
and an exact subset-enumeration oracle for desk-scale n. Every spanning tree,
the subset oracle's included, comes from one batched dense Prim kernel on
the cached weight matrices. The spanning tree has an oracle of its own that
shares no code with Prim: all n**(n-2) labelled trees, decoded from their
Prufer sequences at once in bytes and cached as an edge-major table of flat
edge keys, whose totals add one gathered row at a time (n <= 8). The
spanning routine keeps the name kruskal_mst because the golden report
digests and the benchmark look it up by that name. A CompleteInstance holds
the trials of a SeedContext of any count, and every routine returns one
entry per trial, in trial order; only the Prufer oracle loops over the
trials inside, so that its gather of every labelled tree does not grow with
the block.
The nearest-unvisited-edge minima Y_j come from a block kernel,
sample_yj, that shuffles the whole block's prefixes at once, hashes one
row per trial and builds no matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng, weights
from .errors import CapacityError
from .weights import SeedContext, TreeWeightSpec, require_array, sum_in_order, weight_matrix, weights_from_vertex


class CompleteInstance:
    """One realization of K_n weights per trial of ctx, read through the
    cached stack of weight matrices."""

    def __init__(self, n: int, spec: TreeWeightSpec, ctx: SeedContext):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        self.n = n
        self.spec = spec
        self.ctx = ctx
        self._matrix = None

    def matrix(self) -> np.ndarray:
        """Weight matrices (count, n, n), +inf on each diagonal, built on first use."""
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
    [s, m-1] and sorted by key along each row, and the totals in that order.
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
    lo, hi = np.divmod(key, m)
    return lo, hi, sum_in_order(W[r[:, None], lo, hi].T)


def _tree_results(lo, hi, totals, labels) -> tuple:
    """TreeResults of 0-based edge ends lo, hi [s, k] read through labels [s or 1, m], as Python values."""
    edges = np.stack([np.take_along_axis(labels, ends, axis=1) for ends in (lo, hi)], axis=-1).tolist()
    return tuple(TreeResult(tuple(map(tuple, e)), w, len(e)) for e, w in zip(edges, totals.tolist()))


def greedy_spanning_path(inst: CompleteInstance) -> tuple:
    """Incremental nearest-unvisited-vertex spanning path from vertex 1, per trial.

    Ties break toward the smallest vertex index. Each step reads one matrix
    row per trial and takes one argmin over all of them; the prefix sums add
    the steps left to right.
    """
    W = inst.matrix()
    count, n, _ = W.shape
    flat = W.reshape(count * n, n)
    # at[t] = t * n + v indexes trial t's row of vertex v in flat and its entry in closed
    base = np.arange(count) * n
    closed = np.zeros((count, n))  # +inf once a vertex is on the path
    closed.reshape(-1)[base] = np.inf
    path = [base]
    for _ in range(n - 1):
        at = base + (flat[path[-1]] + closed).argmin(axis=1)
        closed.reshape(-1)[at] = np.inf
        path.append(at)
    at = np.stack(path, axis=1)
    order = at - base[:, None]
    steps = flat[at[:, :-1], order[:, 1:]]
    return tuple(
        GreedyPathResult(order=tuple(o), step_weights=tuple(w), prefix_sums=tuple(p))
        for o, w, p in zip((order + 1).tolist(), steps.tolist(), np.cumsum(steps, axis=1).tolist())
    )


def min_tree_upper_bound(inst: CompleteInstance, tau: int, paths: tuple) -> tuple:
    """Weight of the first tau steps of each trial's greedy path; a feasible tau-edge tree."""
    if not 1 <= tau <= inst.n - 1:
        raise ValueError(f"tau must lie in 1..{inst.n - 1}, got {tau}")
    return tuple(path.prefix_sums[tau - 1] for path in paths)


def kruskal_mst(inst: CompleteInstance) -> tuple:
    """Exact minimum spanning tree of each trial, by the dense Prim kernel.

    Edges come back sorted by key and the total adds them in that order.
    The name is kept because the golden report digests and the benchmark
    refer to it; with distinct weights the tree is Kruskal's.
    """
    return _tree_results(*_prim(inst.matrix()), np.arange(1, inst.n + 1)[None])


def light_edge_count(inst: CompleteInstance, gamma: float) -> tuple:
    """Number of edges of weight strictly below (gamma/n)**alpha per trial (full scan)."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    threshold = (gamma / inst.n) ** inst.spec.alpha
    # each matrix is symmetric with +inf on the diagonal: each edge counts twice
    return tuple((np.count_nonzero(inst.matrix() < threshold, axis=(1, 2)) // 2).tolist())


def threshold_lower_bound(inst: CompleteInstance, tau: int, gamma: float, counts: tuple | None = None) -> tuple:
    """Certified lower bound from counting light edges, per trial.

    Counts R_tot = #{e : w(e) < (gamma/n)**alpha} over all edges and returns
    max(0, tau - R_tot) * (gamma/n)**alpha: a tree with at least tau edges
    carries at least tau - R_tot edges of weight >= threshold. The inequality
    is strict (<) in the count.

    counts, the light_edge_count(inst, gamma) of the same gamma, spares a
    caller that bounds several tau a rescan of the matrices; it is computed
    when None.
    """
    if not 1 <= tau <= inst.n - 1:
        raise ValueError(f"tau must lie in 1..{inst.n - 1}, got {tau}")
    threshold = (gamma / inst.n) ** inst.spec.alpha
    counts = light_edge_count(inst, gamma) if counts is None else counts
    return tuple(max(0, tau - r_tot) * threshold for r_tot in counts)


def subset_stack_cells(n: int, tau: int) -> int:
    """Cells of one trial's subset stack in exact_min_tree: C(n, tau + 1) matrices of (tau + 1)^2."""
    return math.comb(n, tau + 1) * (tau + 1) ** 2


def exact_min_tree(inst: CompleteInstance, tau: int) -> tuple:
    """Exact minimum over trees with at least tau edges, by subset enumeration, per trial.

    With strictly positive weights the optimum has exactly tau edges and
    spans tau + 1 vertices, so the answer is the best MST over all
    (tau+1)-subsets. One Prim run answers the subset matrices of every trial,
    stacked (count * C(n, tau+1), tau+1, tau+1), and each trial takes its
    first least total, so ties go to the lexicographically smallest subset.
    Only feasible at desk scale: n <= 12, and the stack within the array
    budget, checked before any subset, weight or stack array is built.
    """
    n = inst.n
    if not 1 <= tau <= n - 1:
        raise ValueError(f"tau must lie in 1..{n - 1}, got {tau}")
    if n > 12:
        raise ValueError(f"exact_min_tree is limited to n <= 12, got {n}")
    size, count = tau + 1, inst.ctx.count
    per_trial = math.comb(n, size)
    require_array(f"the subset stack of {count} trials at n = {n}, tau = {tau}", count * subset_stack_cells(n, tau))
    # increasing subsets keep local edge keys in the order of the global ones
    subsets = np.array(list(itertools.combinations(range(n), size)), dtype=np.intp)
    lo, hi, totals = _prim(inst.matrix()[:, subsets[:, :, None], subsets[:, None, :]].reshape(-1, size, size))
    best = totals.reshape(count, per_trial).argmin(axis=1) + np.arange(count) * per_trial
    return _tree_results(lo[best], hi[best], totals[best], subsets[best % per_trial] + 1)


def _prefix_block(block: SeedContext, n: int, j: int) -> np.ndarray:
    """Vertices 1..n of each trial of block after j partial Fisher-Yates steps.

    Row t is trial t's permutation, of shape (count, n): its first j
    entries are the trial's uniform ordered j-prefix and the rest are the
    vertices outside it. Swap a of trial t takes positions a and
    a + h % (n - a), where h hashes (STREAM_PREFIX, master seed, trial, a).
    The words are hashed in sub-blocks of weights.BLOCK_ELEMENTS // j
    trials. The shuffle runs once for the whole block, on a position-major
    (n, count) state in the smallest unsigned type that holds n: each step
    swaps position row a with one gathered entry per trial. The result is
    that state's transposed view. The swap-target table and the state, in
    8-byte elements, are checked against the array budget before any word
    is hashed.
    """
    count = block.count
    require_array(f"the swap-target table of {j} steps over {count} trials", j * count)
    dtype = np.min_scalar_type(n)
    require_array(f"the shuffle state of {n} vertices over {count} trials", -(-n * count * dtype.itemsize // 8))
    steps = np.arange(j, dtype=np.uint64)
    # flat index into the state of the entry each trial swaps into position a,
    # one row per step; intp, because numpy casts any other index type per call
    other = np.empty((j, count), dtype=np.intp)
    for sub in block.blocks(weights.BLOCK_ELEMENTS // j):
        first = sub.trial_index - block.trial_index
        h = rng.hash_words_vec(rng.STREAM_PREFIX, block.master_seed, sub.trials, steps)
        h %= np.uint64(n) - steps
        h += steps
        h *= np.uint64(count)
        h += np.arange(first, first + sub.count, dtype=np.uint64)[:, None]
        other[:, first : first + sub.count] = h.T
    state = np.tile(np.arange(1, n + 1, dtype=dtype)[:, None], count)
    flat = state.reshape(-1)
    for a, there in enumerate(other):
        moved = flat[there]
        flat[there] = state[a]
        state[a] = moved
    return state.T


def sample_yj(block: SeedContext, spec: TreeWeightSpec, n: int, j: int) -> list:
    """Y_j of each trial of block: the least weight on K_n from the last vertex
    of the trial's random j-prefix to a vertex outside the prefix.

    With j prefix vertices there are n - j candidates, so j must lie in
    1..n-1. One trial's row of n - j weights is checked against the array
    budget before anything is hashed, which covers every sub-block of at
    most max(1, weights.BLOCK_ELEMENTS // n) trials. One _prefix_block
    shuffle serves the whole block; then one weights_from_vertex call per
    sub-block hashes each row's last prefix vertex against its outside
    vertices. No weight matrix is built. Returns one float per trial.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"prefix length must lie in 1..{n - 1}, got {j}")
    require_array(f"the weight row of Y_{j} over {n - j} vertices", n - j)
    verts = _prefix_block(block, n, j)
    ys = []
    for sub in block.blocks(weights.BLOCK_ELEMENTS // n):
        first = sub.trial_index - block.trial_index
        rows = verts[first : first + sub.count]
        ys += weights_from_vertex(spec, sub, rows[:, j - 1 : j], rows[:, j:]).min(axis=1).tolist()
    return ys


# -- Prufer-sequence enumeration oracle ----------------------------------------


# _LOWEST_BIT[b] is the index of the lowest set bit of the byte b (b > 0)
_LOWEST_BIT = np.array([0] + [(b & -b).bit_length() - 1 for b in range(1, 256)], dtype=np.uint8)


@lru_cache(maxsize=4)
def _labelled_tree_keys(n: int) -> np.ndarray:
    """0-based flat edge keys lo * n + hi of all n**(n-2) labelled trees, (n - 1, n**(n-2)).

    Column r is the tree of the r-th Prufer sequence in itertools.product
    order, its keys sorted down the column. All columns decode at once, in
    bytes: each of the n - 2 steps joins every column's smallest leaf, the
    lowest bit of its leaf mask, to its next sequence entry, which becomes a
    leaf at its last entry; the last edge joins the two vertices left.
    Widened to intp once, cached and read-only: reused across seeds.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 8:
        raise CapacityError(f"enumerating {n}**{n - 2} trees is out of budget")
    n_trees = n ** (n - 2)
    seqs = np.indices((n,) * (n - 2), dtype=np.uint8).reshape(n - 2, n_trees)
    # last[i] keeps the bit of entry i if no later entry repeats it; later ends
    # as the mask of every vertex in the sequence, the tree's non-leaves
    last = np.left_shift(np.uint8(1), seqs)
    later = np.zeros(n_trees, dtype=np.uint8)
    for i in range(n - 3, -1, -1):
        last[i] &= ~later
        later |= last[i]
    leaves = ~later & np.uint8((1 << n) - 1)
    keys = np.empty((n - 1, n_trees), dtype=np.uint8)
    for step, s in enumerate(seqs):
        leaf = _LOWEST_BIT[leaves]
        keys[step] = np.minimum(leaf, s) * np.uint8(n) + np.maximum(leaf, s)
        leaves &= leaves - np.uint8(1)
        leaves |= last[step]
    keys[-1] = _LOWEST_BIT[leaves] * np.uint8(n) + _LOWEST_BIT[leaves & (leaves - np.uint8(1))]
    keys.sort(axis=0)
    keys = keys.astype(np.intp)
    keys.flags.writeable = False
    return keys


def prufer_mst_weight(inst: CompleteInstance) -> tuple:
    """Minimum spanning tree weight of each trial by full labelled-tree enumeration.

    One trial at a time, gathers one table row of edge weights at a time
    from the trial's flat weight matrix and adds the rows left to right, so
    a trial holds one or two n**(n-2) columns (134 KB each at n = 7), not
    every tree's edges. Each total comes from the same sorted-key sum as
    kruskal_mst, so the two agree bit for bit on the optimal tree.
    """
    keys = _labelled_tree_keys(inst.n)
    return tuple(float(sum_in_order(matrix.ravel()[row] for row in keys).min()) for matrix in inst.matrix())
