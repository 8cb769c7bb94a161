"""Hop-constrained and unconstrained minimum passage times on Z^d.

Every value is exact for the infinite lattice. The hop-constrained solver is
a dynamic program over walks indexed by (vertex, hop) on the bounding box
of the walks of at most k edges to the target, a finite set, so it is exact
with no certificate; at each hop it relaxes only the rows of that box such
a walk can reach. With nonnegative times the walk relaxation is exact for
self-avoiding paths.

Only Dijkstra runs on a box, [-r, n + r] x [-r, r]^(d - 1) around the
segment from the origin to the target. One search runs from both ends at
once, giving each cell its distance from the nearer end and that end, its
root, and stops at about half of an inclusive limit, an upper bound on T_n
that the caller may pass (the straight-path time by default, or a hop-DP
label). A path of time at most the limit has an arc from a cell rooted at
the origin to one rooted at the target, so T_n is the least sum of the two
distances and the edge time over such arcs. A boundary certificate proves
the box exact: a path leaving it pays at least the least boundary distance
before its first exit and again after its last re-entry. Each box is
searched once; when its certificate fails the radius doubles, and only the
array budget bounds the growth.

Every caller takes its edge times from one grid convention, _axis_times: a
numpy grid spanning [lows[a], lows[a] + shape[a]) on each axis a,
row-major. _box(d, n, r) is the box [-r, n + r] x [-r, r]^(d - 1):
Dijkstra searches it, and at r = floor((k - n) / 2) it bounds every walk of
at most k edges, so it is the DP's grid and the path oracle's. The straight
path's grid is the segment from the origin to the target. The DP's label
grid, Dijkstra's arcs and distances, the straight path's edge times and the
path oracle's costs and edge times are checked against
weights.require_array's budget before they are built; require_trial_arrays
and require_oracle_arrays check one trial's.

The path oracle, the hop DP's ground truth on Z^2 for budgets up to 9,
searches no lattice: _path_table lists every self-avoiding path of at most
K edges to the target once, from geometry alone, as indices into the two
edge-time grids of the box at r = floor((K - n) / 2), and the oracle sums
each path's gathered times in path order for every trial of a block.

LatticeSpec.ctx is a SeedContext of count trials, one lattice per trial.
_axis_times grids have a leading trial axis; the hop DP transposes its
grids once so that the trial axis runs last, and relaxes each hop's rows as
contiguous flat ranges. Every routine returns a tuple with one entry per
trial, in trial order, a context of one included. The hop DP, the straight
path and the path oracle answer every trial at once, each trial bit for bit
as on its own; Dijkstra runs on one lattice at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import weights
from .errors import CapacityError, InfeasibleError
from .stats import ProbEstimate, wilson_interval
from .weights import PassageTimeSpec, SeedContext, passage_time_grid, require_array


@dataclass(frozen=True)
class LatticeSpec:
    """Dimension, passage-time law, and randomness root of one lattice per trial of ctx."""

    d: int
    spec: PassageTimeSpec
    ctx: SeedContext

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"lattice dimension must be at least 2, got {self.d}")


@dataclass(frozen=True)
class ConstrainedResult:
    """Outcome of one passage-time computation.

    value is the (possibly hop-constrained) minimum passage time; hop_count
    the edge count of the witnessing optimal path. path is the vertex
    sequence of the Dijkstra witness of unconstrained_time, or the
    one-vertex path at n = 0; the hop DP computes values only and leaves it
    None.
    """

    value: float
    hop_count: int
    path: tuple | None = None
    # set by hop_constrained_time only: the target label after each hop 1..k
    target_labels: tuple = field(default=(), repr=False, compare=False)


def _axis_times(lat: LatticeSpec, lows: tuple, shape: tuple, axis: int) -> np.ndarray:
    """Passage times of the +axis edges of the grid spanning
    [lows[i], lows[i] + shape[i]) on each axis i, indexed by trial and
    then by base vertex."""
    coords = []
    for i, (lo, size) in enumerate(zip(lows, shape)):
        c = np.arange(lo, lo + size - (i == axis), dtype=np.int64)
        coords.append(c.reshape([-1 if j == i else 1 for j in range(len(shape))]))
    return passage_time_grid(lat.spec, lat.ctx, axis, tuple(coords))


def _box(d: int, n: int, radius: int) -> tuple:
    """(lows, shape) of [-radius, n + radius] x [-radius, radius]^(d - 1) as an
    _axis_times grid: Dijkstra's box, and at radius floor((k - n) / 2) the
    bounding box of the walks of at most k edges to target n."""
    return (-radius,) * d, (n + 2 * radius + 1,) + (2 * radius + 1,) * (d - 1)


def _walk_windows(d: int, n: int, k: int) -> tuple:
    """Rows the hop DP relaxes at each hop: those holding a cell that a walk
    of at most k edges from the origin to t = (n, 0, ..., 0) can visit.

    After h hops such a walk is at some v with |v|_1 <= h and
    |v - t|_1 <= k - h, and every vertex of it satisfies
    |v|_1 + |v - t|_1 <= k. So v_0, the row of v, lies in the origin's
    range [-h, h], in the target's range [n - (k - h + 1), n + (k - h + 1)]
    (the base of a hop-h move is one hop farther from t than its head) and
    in the bounding box of that ellipse, [-m, n + m] with m = floor((k - n) / 2).

    Returns (lows, shape, rows). Labels live on the grid _box(d, n, m), the
    bounding box of the walks, and rows[h - 1] = (lo, hi) is the range of
    axis-0 grid indices [lo, hi) of hop h. Each row enters the ranges once
    and leaves them once, the lower end falling and then rising, the upper
    end rising and then falling.
    """
    m = (k - n) // 2
    lows, shape = _box(d, n, m)
    rows = tuple((max(-h, n - k + h - 1, -m) + m, min(h, n + k - h + 1, n + m) + m + 1) for h in range(1, k + 1))
    return lows, shape, rows


def _trivial_result(lat: LatticeSpec) -> ConstrainedResult:
    return ConstrainedResult(value=0.0, hop_count=0, path=((0,) * lat.d,))


def label_grid_cells(d: int, n: int, k: int) -> int:
    """Cells of one trial's hop-DP label grid for target n and budget k >= n.

    The grid is _box(d, n, floor((k - n) / 2)); only its size is computed,
    so configs far too large to build are sized too.
    """
    return math.prod(_box(d, n, (k - n) // 2)[1])


def _read_budget(labels, k: int) -> tuple:
    """(value, hop count) of budget k from the target labels of a DP pass of budget >= k.

    The hop count is the smallest h at which the target label reaches its
    final value, i.e. the fewest-edge witness; labels never increase in h.
    """
    value = labels[k - 1]
    return value, labels.index(value) + 1


def hop_constrained_time(lat: LatticeSpec, n: int, k: int) -> tuple:
    """Minimum passage time on Z^d from the origin to (n, 0, ..., 0) over
    paths of at most k edges.

    Labels satisfy d_0(origin) = 0 and
    d_h(v) = min(d_{h-1}(v), min_u adjacent d_{h-1}(u) + t(u, v)).
    Hop h relaxes only its rows of _walk_windows, each over the box's full
    extent on the other axes. Every prefix of every walk of at most k edges
    to the target lies in the rows of its hops, each label is the time of a
    walk on the lattice, and rounded addition is monotone, so the target
    label after each hop is the infinite lattice's, bit for bit. The hop
    count is that of _read_budget.

    Each result also carries the target label after every hop, so one pass
    answers every smaller budget as well (see hop_constrained_certified).

    The label grids and the edge-time grids have the box's shape with a
    trailing trial axis, so one relaxation loop serves every trial of
    lat.ctx: the result holds one ConstrainedResult per trial, each equal,
    bit for bit, to that trial's own pass. Each _axis_times grid is
    transposed once into a box-shaped grid whose last cell on its axis,
    which has no edge, holds +inf. Flattened, a hop's rows are one
    contiguous range and a move along an axis is a fixed flat step; a step
    from the last cell of the axis would wrap to the next line, but it
    crosses the +inf time and changes no label. Each relaxation is one add
    into one preallocated buffer and one in-place minimum. The label grids
    of all trials are checked against the array budget before they are
    built; the buffer and each time grid are the same size.

    Raises InfeasibleError when k < n (the L1 distance).
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if k < n:
        raise InfeasibleError(f"hop budget {k} below L1 distance {n}: no path exists")
    count = lat.ctx.count
    if n == 0:
        return (_trivial_result(lat),) * count
    what = f"the hop-DP label grid for n = {n}, k = {k}" + (f" over {count} trials" if count > 1 else "")
    require_array(what, count * label_grid_cells(lat.d, n, k))

    lows, shape, rows = _walk_windows(lat.d, n, k)
    # flat step of a move along each axis, trials innermost
    steps = [count * math.prod(shape[a + 1 :]) for a in range(lat.d)]
    times = []
    for a in range(lat.d):
        t = np.full(shape + (count,), np.inf)
        t[_arc_ends(lat.d, a)[0]] = np.moveaxis(_axis_times(lat, lows, shape, a), 0, -1)
        times.append(t.ravel())
    origin = count * int(np.ravel_multi_index(tuple(-g for g in lows), shape))
    target = origin + n * steps[0]

    cur = np.full(count * math.prod(shape), np.inf)
    cur[origin : origin + count] = 0.0
    new = cur.copy()
    buf = np.empty_like(cur)
    labels = np.empty((k, count))

    for h, (first, last) in enumerate(rows):
        lo, hi = first * steps[0], last * steps[0]
        # cells enter the rows only before any label reaches them and never
        # re-enter, so what the grids hold outside the rows is never read
        new[lo:hi] = cur[lo:hi]
        for step, t in zip(steps, times):
            base, head = slice(lo, hi - step), slice(lo + step, hi)
            sums, t = buf[: hi - lo - step], t[base]
            # +axis moves leave the base cell, -axis moves arrive at it
            for src, dst in ((base, head), (head, base)):
                out = new[dst]
                np.add(cur[src], t, out=sums)
                np.minimum(out, sums, out=out)
        cur, new = new, cur
        labels[h] = cur[target : target + count]

    rows = labels.T.tolist()
    return tuple(ConstrainedResult(*_read_budget(row, k), target_labels=tuple(row)) for row in rows)


def hop_constrained_certified(lat: LatticeSpec, n: int, budgets) -> tuple:
    """T_n(k) for each hop budget k of a schedule, per trial of lat.ctx: one
    tuple of path-less ConstrainedResult per trial.

    One hop_constrained_time pass to the largest budget serves every budget
    of every trial. The name is kept because perfbench/tracer.py and
    perfbench/selfcheck.py look it up, as they do kruskal_mst.
    """
    if min(budgets) < n:
        raise InfeasibleError(f"hop budget {min(budgets)} below L1 distance {n}: no path exists")
    if n == 0:
        return ((ConstrainedResult(0.0, 0),) * len(budgets),) * lat.ctx.count
    passes = hop_constrained_time(lat, n, max(budgets))
    return tuple(tuple(ConstrainedResult(*_read_budget(r.target_labels, b)) for b in budgets) for r in passes)


def _require_box(shape: tuple) -> None:
    """Raise CapacityError when the Dijkstra box of grid shape shape has
    2**31 arcs or more (the int32 CSR indptr and indices would wrap), or
    when its float64 arc times or its search's arrays exceed the array
    budget: float64 distances, int32 predecessors and int32 roots, one of
    each per cell, 2 * cells 8-byte elements."""
    cells = math.prod(shape)
    arcs = 2 * sum(cells // side * (side - 1) for side in shape)
    if arcs >= 2**31:
        raise CapacityError(f"Dijkstra box of shape {shape} has {arcs} arcs, beyond int32 CSR indices")
    require_array(f"the arc-time array of the Dijkstra box of shape {shape}", arcs)
    require_array(f"the distance array of Dijkstra's search on the box of shape {shape}", 2 * cells)


def _arc_ends(d: int, axis: int) -> tuple:
    """Slices of the base and of the head cells of a grid's +axis arcs."""
    lo = tuple(slice(None, -1) if i == axis else slice(None) for i in range(d))
    hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(d))
    return lo, hi


@functools.lru_cache(maxsize=1)
def _csr_pattern(shape: tuple) -> tuple:
    """indptr, indices and COO-to-CSR order of the arcs of the grid of shape
    shape, and the flat indices of its boundary cells.

    Cells are indexed row-major. The arcs are listed as _box_csr lists their
    times: per axis, the +axis arcs and then the -axis arcs. The order sorts
    them by row, then column, which is the layout csr_matrix builds from
    those COO triplets. The caller has checked the box (_require_box).
    """
    cells = math.prod(shape)
    idx = np.arange(cells, dtype=np.int32).reshape(shape)
    rows, cols = [], []
    for a in range(len(shape)):
        lo, hi = _arc_ends(len(shape), a)
        u, v = idx[lo].ravel(), idx[hi].ravel()
        rows += [u, v]
        cols += [v, u]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(cells + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=cells), out=indptr[1:])
    interior = np.zeros(tuple(side - 2 for side in shape), dtype=bool)
    boundary = np.flatnonzero(np.pad(interior, 1, constant_values=True))
    pattern = (indptr, cols[order], order, boundary)
    for a in pattern:
        a.flags.writeable = False  # every graph built from the cache shares these
    return pattern


def csr_matrix(*args, **kwargs):
    """scipy.sparse.csr_matrix. scipy.sparse is imported on the first call,
    because only Dijkstra needs it and it costs most of the start-up time."""
    from scipy.sparse import csr_matrix as build

    return build(*args, **kwargs)


def _csgraph_dijkstra(*args, **kwargs):
    """scipy.sparse.csgraph.dijkstra, imported on the first call as csr_matrix is."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


def _box_csr(times: list, shape: tuple):
    """Sparse adjacency of the grid of shape shape with per-edge passage
    times (both arcs), indexed as _csr_pattern indexes it; times[a] holds
    one trial's +a edge times, indexed by base cell."""
    indptr, indices, order, _ = _csr_pattern(shape)
    # each edge's time serves its +axis and its -axis arc
    data = np.concatenate([t.ravel() for t in times for _ in range(2)])
    return csr_matrix((data[order], indices, indptr), shape=(indptr.size - 1,) * 2)


# Dijkstra's search stops at limit * (1/2 + PATH_SUM_SLACK). The slack is
# relative and covers the rounding of every path sum in a box the array
# budget admits: its search's 2 * cells elements keep it at 2**25 cells or
# fewer, so a sum of its edge times is off by less than 2**25 * 2**-53 of
# its exact value.
PATH_SUM_SLACK = 2.0**-26


def _first_radius(n: int) -> int:
    """Radius of Dijkstra's first box for target n: ceil(5n/8) + 8."""
    return (5 * n + 7) // 8 + 8


def require_trial_arrays(d: int, n: int, k: int | None = None) -> int:
    """Check, before any trial runs, the label grid of a first DP pass to budget
    k, if any, then Dijkstra's first box, as the solvers do (CapacityError).
    Returns one trial's widest block array: the grid's cells, which exceed n,
    or without a pass the n straight-path times, which the box outgrows."""
    cells = n
    if k is not None:
        cells = label_grid_cells(d, n, k)
        require_array(f"the hop-DP label grid for n = {n}, k = {k}", cells)
    _require_box(_box(d, n, _first_radius(n))[1])
    return cells


def unconstrained_time(lat: LatticeSpec, n: int, limits=None) -> tuple:
    """Unconstrained minimum passage time on Z^d to (n, 0, ..., 0): one
    ConstrainedResult per trial of lat.ctx, each with its witness path.

    limits holds one limit per trial, an inclusive upper bound on its T_n
    that defaults to its straight-path time. Any hop-DP target label is the
    time of a real walk, so it is a valid limit too.

    Dijkstra runs on one trial's lattice at a time, in one search from the
    origin and the target at once on the box [-r, n + r] x [-r, r]^(d - 1),
    r = ceil(5n/8) + 8 at first, stopping at h = limit * (1/2 + PATH_SUM_SLACK).
    Each reached cell gets its distance d from the nearer end and that end,
    its root. Every cell of a best path of time T <= limit lies within
    T/2 <= h of one end, and the path's roots run from the origin to the
    target, so T_n is the least d(u) + t(u, w) + d(w) over arcs u -> w from
    a cell rooted at the origin to one rooted at the target. The witness is
    the search path from the origin to u, then from w to the target; its
    edge times are summed left to right, as a one-source Dijkstra sums them.

    The box is certified when 2 * e >= T_n, e being the least boundary
    distance, or the stop when it is smaller: a path that leaves the box
    pays at least e up to its first boundary vertex and at least e from its
    last one. Each box is searched once; when its certificate fails the
    radius doubles until it holds, and the value is then exact for the
    infinite lattice. Growth ends only at the array budget: a box too large
    for int32 CSR indices or for the budget raises CapacityError before any
    array of it is built (see _require_box). When 2 * e exceeds the limit
    and no path in the box takes at most the limit, the limit is below T_n:
    ValueError.

    Distance ties between distinct optimal paths occur with probability zero
    under the continuous passage-time laws; on such ties the reported witness
    path is the deterministic one produced by the sparse Dijkstra routine.
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if n == 0:
        return (_trivial_result(lat),) * lat.ctx.count
    if limits is None:
        limits = straight_path_time(lat, n)
    trials = [LatticeSpec(lat.d, lat.spec, ctx) for ctx in lat.ctx.blocks(1)]
    return tuple(_certified_dijkstra(one, n, limit) for one, limit in zip(trials, limits, strict=True))


def _certified_dijkstra(lat: LatticeSpec, n: int, limit: float) -> ConstrainedResult:
    """unconstrained_time on a context of one, for n >= 1."""
    radius = _first_radius(n)
    stop = limit * (0.5 + PATH_SUM_SLACK)
    while True:
        lows, shape = _box(lat.d, n, radius)
        _require_box(shape)  # before any array of the box is built
        times = [_axis_times(lat, lows, shape, a)[0] for a in range(lat.d)]
        graph = _box_csr(times, shape)
        # flat indices of the origin and of the target, the search's two roots
        ends = np.ravel_multi_index(((radius, radius + n),) + ((radius, radius),) * (lat.d - 1), shape)
        dist, pred, roots = _csgraph_dijkstra(graph, indices=ends, return_predecessors=True, limit=stop, min_only=True)
        value, cells = _meet(dist, pred, roots, times, shape, ends)
        bound = 2 * min(float(dist[_csr_pattern(shape)[3]].min()), stop)
        if value <= limit and bound >= value:
            return ConstrainedResult(value, len(cells) - 1, tuple(map(tuple, (cells + lows).tolist())))
        if bound > limit:
            raise ValueError(f"Dijkstra limit {limit} is below the passage time to n = {n}")
        radius *= 2


def _best_arc(dist, roots, times: list, shape: tuple, ends):
    """The arc u -> w of the box with the least d(u) + t(u, w) + d(w) whose
    tail is rooted at the origin ends[0] and whose head at the target
    ends[1], as (axis, backward, flat index of its base in times[axis]), or
    None when there is none; dist and roots are the search's (cells,)
    distances and roots. Sums are formed only at those arcs, in (axis,
    direction, flat index) order, so the first least sum in that order wins.
    """
    d = len(shape)
    dist, roots = dist.reshape(shape), roots.reshape(shape)
    from_s, from_t = roots == ends[0], roots == ends[1]
    best, arc = math.inf, None
    for a, t in enumerate(times):
        lo, hi = _arc_ends(d, a)
        for backward, (u, w) in enumerate(((lo, hi), (hi, lo))):
            both = from_s[u] & from_t[w]
            sums = dist[u][both] + t[both] + dist[w][both]
            if not sums.size:
                continue
            i = int(np.argmin(sums))
            if sums[i] < best:
                best, arc = sums[i], (a, backward, int(np.flatnonzero(both)[i]))
    return arc


def _meet(dist, pred, roots, times: list, shape: tuple, ends) -> tuple:
    """(value, cells) of the best origin-to-target path through an arc
    u -> w of the box from a cell rooted at the origin to one rooted at the
    target, the one _best_arc picks. cells holds the path's grid indices,
    one row per vertex, and the value sums its edge times left to right; it
    is +inf, with no cells, when no arc joins the two roots' cells.

    dist, pred and roots are the one search's (cells,) distances,
    predecessors and roots, from the origin ends[0] and the target ends[1].
    """
    arc = _best_arc(dist, roots, times, shape, ends)
    if arc is None:
        return math.inf, np.empty((0, len(shape)), dtype=np.intp)
    a, backward, i = arc
    base = np.unravel_index(i, times[a].shape)
    head = tuple(c + (j == a) for j, c in enumerate(base))
    u, w = (int(np.ravel_multi_index(x, shape)) for x in ((head, base) if backward else (base, head)))

    def to_root(cell):  # a root's predecessor is -9999
        while cell >= 0:
            yield cell
            cell = int(pred[cell])

    path = [*to_root(u)][::-1] + [*to_root(w)]
    cells = np.stack(np.unravel_index(path, shape), axis=1)
    axes = np.argmax(cells[1:] != cells[:-1], axis=1)
    bases = np.minimum(cells[1:], cells[:-1])
    steps = np.empty(len(path) - 1)
    for a, t in enumerate(times):
        on = axes == a
        steps[on] = t[tuple(bases[on].T)]
    # added in path order, as Dijkstra's relaxations add them
    return float(weights.sum_in_order(steps)), cells


@functools.lru_cache(maxsize=32)
def _path_table(n: int, kmax: int) -> tuple:
    """Every self-avoiding path on Z^2 from the origin to (n, 0) with at
    most kmax edges, for 1 <= n <= kmax: (index, edges).

    Row p of index lists path p's edges in path order, as indices into one
    trial's two _axis_times grids of _box(2, n, floor((kmax - n) / 2)),
    flattened and concatenated, axis 0 first; the index past both grids
    pads each row to the longest path and points at a 0.0 column that the
    caller appends. edges[p] is path p's edge count, and the rows are
    sorted by it, so the paths of at most k edges are a prefix of rows.

    A depth-first search builds it from geometry alone: a prefix of u edges
    at L1 distance r from the target is cut when u + r > kmax. Every vertex
    of a path it keeps satisfies |v|_1 + |v - t|_1 <= kmax, so the path lies
    in the box. Cached and read-only: the table is reused across seeds.
    """
    m = (kmax - n) // 2
    _, (width, height) = _box(2, n, m)
    x_edges = (width - 1) * height  # size of the axis-0 grid, which the axis-1 grid follows
    rows = []

    def extend(x, y, path, visited):
        if (x, y) == (n, 0):
            rows.append(path)
            return
        i, j = x + m, y + m  # the cell's grid indices
        for step, edge in (
            ((x + 1, y), i * height + j),
            ((x - 1, y), (i - 1) * height + j),
            ((x, y + 1), x_edges + i * (height - 1) + j),
            ((x, y - 1), x_edges + i * (height - 1) + j - 1),
        ):
            if step not in visited and len(path) + 1 + abs(step[0] - n) + abs(step[1]) <= kmax:
                extend(*step, path + [edge], visited | {step})

    extend(0, 0, [], {(0, 0)})
    rows.sort(key=len)
    pad = x_edges + width * (height - 1)
    index = np.array([row + [pad] * (len(rows[-1]) - len(row)) for row in rows])
    edges = np.array([len(row) for row in rows])
    for a in (index, edges):
        a.flags.writeable = False
    return index, edges


def require_oracle_arrays(n: int, kmax: int, count: int = 1) -> int:
    """Check enumerate_paths_oracle's (count, paths) costs, then its (count,
    grid edges + 1) edge times, against the array budget; returns a trial's longer row."""
    paths = len(_path_table(n, kmax)[0])
    require_array(f"the path-cost table of {paths} paths to n = {n} over {count} trials", count * paths)
    _, (width, height) = _box(2, n, (kmax - n) // 2)
    row = (width - 1) * height + width * (height - 1) + 1
    require_array(f"the edge-time grids of {row - 1} edges to n = {n} over {count} trials", count * row)
    return max(paths, row)


def enumerate_paths_oracle(lat: LatticeSpec, n: int, budgets) -> tuple:
    """Exhaustive minimum over self-avoiding paths of at most k edges on Z^2,
    for each hop budget k: per trial of lat.ctx, one tuple with one value
    per budget, None when k < n.

    Only for tiny instances (d = 2, every budget at most 9). The paths come
    from _path_table for the largest budget K, every self-avoiding path of
    at most K edges to the target t = (n, 0); each of its vertices
    satisfies |v|_1 + |v - t|_1 <= K, so one pair of edge-time grids on the
    box _box(2, n, floor((K - n) / 2)) holds every edge time. The grids are
    hashed once for the block, after require_oracle_arrays has checked the
    block's cost table and edge times against the array budget. Each path's
    cost is gathered one path position at a time and added left to right,
    in path order, so values match hop_constrained_time bit for bit; the
    padding positions add 0.0, which changes no sum. Budget k takes the
    least cost over the paths of at most k edges.
    """
    budgets = tuple(budgets)
    if lat.d != 2:
        raise ValueError("oracle is limited to d = 2")
    if not budgets:
        raise ValueError("oracle needs at least one hop budget")
    kmax = max(budgets)
    if kmax > 9:
        raise ValueError(f"oracle is limited to k <= 9, got {kmax}")
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    count = lat.ctx.count
    if n == 0 or kmax < n:
        return (((0.0 if n == 0 else None),) * len(budgets),) * count

    require_oracle_arrays(n, kmax, count)
    index, edges = _path_table(n, kmax)
    box = _box(2, n, (kmax - n) // 2)
    grids = [_axis_times(lat, *box, axis).reshape(count, -1) for axis in (0, 1)]
    times = np.concatenate(grids + [np.zeros((count, 1))], axis=1)
    costs = weights.sum_in_order(times[:, column] for column in index.T)
    best = {k: costs[:, : np.searchsorted(edges, k, side="right")].min(axis=1).tolist() for k in budgets if k >= n}
    return tuple(tuple(best[k][t] if k >= n else None for k in budgets) for t in range(count))


def straight_path_time(lat: LatticeSpec, n: int) -> tuple:
    """Passage time of the straight first-axis path through (1,0,..) .. (n,0,..),
    summed left to right: one time per trial of lat.ctx. Its (count, n) edge
    times are checked against the array budget before they are hashed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    count = lat.ctx.count
    require_array(f"the edge times of the straight path to n = {n} over {count} trials", count * n)
    times = _axis_times(lat, (0,) * lat.d, (n + 1,) + (1,) * (lat.d - 1), 0)
    return tuple(weights.sum_in_order(times.reshape(-1, n).T).tolist())


def linear_path_tail_probe(lat: LatticeSpec, m: int, beta: float) -> ProbEstimate:
    """Monte Carlo estimate of P(sum of the first m straight-edge times <= beta*m)
    over the trials of lat.ctx.

    Trials run in blocks of at most weights.BLOCK_ELEMENTS // m, one
    straight_path_time call each, which checks the block's edge times.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")

    cutoff = beta * m
    successes = 0
    for block in lat.ctx.blocks(weights.BLOCK_ELEMENTS // m):
        sums = straight_path_time(LatticeSpec(lat.d, lat.spec, block), m)
        successes += int(np.count_nonzero(np.array(sums) <= cutoff))
    return wilson_interval(successes, lat.ctx.count)
