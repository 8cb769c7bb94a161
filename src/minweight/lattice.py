"""Hop-constrained and unconstrained minimum passage times on Z^d.

Every value is exact for the infinite lattice. The hop-constrained solver is
a dynamic program over walks indexed by (vertex, hop); it relaxes only the
cells a walk of at most k edges to the target can visit, a finite set, so it
needs no box. With nonnegative times the walk relaxation is exact for
self-avoiding paths.

Only Dijkstra runs on a box [-r, r]^d around the origin, and a boundary
certificate proves it exact: if every boundary vertex's distance is already
at least the target's, a path leaving the box pays at least that before it
exits and passage times are nonnegative, so it cannot improve. Dijkstra
stops at an inclusive limit, an upper bound on the target's distance that
the caller may pass (the straight-path time by default, or a hop-DP label);
vertices beyond it read +inf, which changes neither the value, the witness
nor the certificate.

Every caller takes its edge times from one grid convention, _axis_times: a
numpy grid spanning [lows[a], lows[a] + shape[a]) on each axis a,
row-major. The DP's grid is its walk region; Dijkstra's is the box, with
lows = (-r,) * d and shape = (2r + 1,) * d; the straight path's is the
segment from the origin to the target; the path oracle's is the bounding
box of its search. The DP's label grid and Dijkstra's arc times are checked
against the array budget of weights.require_array before they are built;
require_trial_arrays runs the same checks from a config alone.

LatticeSpec.ctx is a SeedContext (one lattice) or a TrialBlock (one lattice
per trial). Under a block, _axis_times grids get a leading trial axis, and
the hop DP, the straight path and the path oracle answer every trial of the
block at once, each trial bit for bit as on its own; their results hold one
entry per trial. Dijkstra runs on one lattice at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from . import weights
from .errors import CapacityError, InfeasibleError
from .stats import ProbEstimate, wilson_interval
from .weights import PassageTimeSpec, SeedContext, TrialBlock, passage_time_grid, require_array


@dataclass(frozen=True)
class LatticeSpec:
    """Dimension, passage-time law, and randomness root of one lattice, or of
    one lattice per trial when ctx is a TrialBlock."""

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
    [lows[i], lows[i] + shape[i]) on each axis i, indexed by base vertex,
    after a leading trial axis under a TrialBlock."""
    coords = []
    for i, (lo, size) in enumerate(zip(lows, shape)):
        c = np.arange(lo, lo + size - (i == axis), dtype=np.int64)
        coords.append(c.reshape([-1 if j == i else 1 for j in range(len(shape))]))
    return passage_time_grid(lat.spec, lat.ctx, axis, tuple(coords))


@functools.lru_cache(maxsize=256)
def _walk_windows(d: int, n: int, k: int) -> tuple:
    """Cells the hop DP relaxes at each hop: those a walk of at most k edges
    from the origin to t = (n, 0, ..., 0) can visit.

    After h hops such a walk is at some v with |v|_1 <= h and
    |v - t|_1 <= k - h, and every vertex of it satisfies
    |v|_1 + |v - t|_1 <= k. Per axis a, the window of hop h therefore
    intersects the origin cube [-h, h], the target cube
    [t_a - (k - h + 1), t_a + (k - h + 1)] (the base of a hop-h move is one
    hop farther from t than its head) and the bounding box of that ellipse,
    [-m, t_a + m] with m = floor((k - n) / 2).

    Returns (lows, shape, hops). Labels live on the grid spanning
    [lows[a], lows[a] + shape[a]) on each axis a. hops[h - 1] holds the
    window of hop h in grid slices and, per axis a, the slices (lo, hi) of
    the base and head vertices of its +a edges; lo also indexes that axis's
    edge-time array, keyed by base vertex on the same grid. Every index
    starts with Ellipsis, so it selects the same cells of one trial's grid
    and of a block's grids, whose leading axis is the trial.
    """
    m = (k - n) // 2
    target = (n,) + (0,) * (d - 1)
    spans = [
        [(max(-h, t - k + h - 1, -m), min(h, t + k - h + 1, t + m)) for t in target]
        for h in range(1, k + 1)
    ]
    lows = tuple(min(hop[a][0] for hop in spans) for a in range(d))
    shape = tuple(max(hop[a][1] for hop in spans) - lows[a] + 1 for a in range(d))

    hops = []
    for hop in spans:
        window = tuple(slice(lo - g, hi - g + 1) for (lo, hi), g in zip(hop, lows))
        ends = tuple(
            (
                (...,) + window[:a] + (slice(lo - lows[a], hi - lows[a]),) + window[a + 1 :],
                (...,) + window[:a] + (slice(lo - lows[a] + 1, hi - lows[a] + 1),) + window[a + 1 :],
            )
            for a, (lo, hi) in enumerate(hop)
        )
        hops.append(((...,) + window, ends))
    return lows, shape, tuple(hops)


def _trivial_result(lat: LatticeSpec) -> ConstrainedResult:
    return ConstrainedResult(value=0.0, hop_count=0, path=((0,) * lat.d,))


def _batch(lat: LatticeSpec) -> tuple:
    """The leading axes of the lattice's grids: () for one trial, (count,) for a TrialBlock."""
    return (lat.ctx.count,) if isinstance(lat.ctx, TrialBlock) else ()


def label_grid_cells(d: int, n: int, k: int) -> int:
    """Cells of one trial's hop-DP label grid for target n and budget k >= n.

    The grid is the walk region's bounding box, [-m, n + m] x [-m, m]^(d - 1)
    with m = floor((k - n) / 2).
    """
    m = (k - n) // 2
    return (n + 2 * m + 1) * (2 * m + 1) ** (d - 1)


def _require_label_grids(d: int, n: int, k: int, count: int = 0) -> None:
    """Check the float64 label grid of a hop-DP pass, or of count trials of a
    block pass, against the array budget."""
    what = f"the hop-DP label grid for n = {n}, k = {k}" + (f" over {count} trials" if count else "")
    require_array(what, max(count, 1) * label_grid_cells(d, n, k))


def _read_budget(labels, k: int) -> tuple:
    """(value, hop count) of budget k from the target labels of a DP pass of budget >= k.

    The hop count is the smallest h at which the target label reaches its
    final value, i.e. the fewest-edge witness; labels never increase in h.
    """
    value = labels[k - 1]
    return value, labels.index(value) + 1


def hop_constrained_time(lat: LatticeSpec, n: int, k: int):
    """Minimum passage time on Z^d from the origin to (n, 0, ..., 0) over
    paths of at most k edges.

    Labels satisfy d_0(origin) = 0 and
    d_h(v) = min(d_{h-1}(v), min_u adjacent d_{h-1}(u) + t(u, v)).
    Hop h relaxes only its window of _walk_windows. Every prefix of every
    walk of at most k edges to the target lies in the windows of its hops,
    and rounded addition is monotone, so the target label after each hop is
    the infinite lattice's, bit for bit. The hop count is that of
    _read_budget.

    The result also carries the target label after every hop, so one pass
    answers every smaller budget as well (see hop_constrained_certified).

    When lat.ctx is a TrialBlock, the label and edge-time grids get a leading
    trial axis and one relaxation loop serves every trial of the block: the
    result is then a tuple of one ConstrainedResult per trial, each equal,
    bit for bit, to that trial's own pass. The label grids of the whole
    block are checked against the array budget before they are built.

    Raises InfeasibleError when k < n (the L1 distance).
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if k < n:
        raise InfeasibleError(f"hop budget {k} below L1 distance {n}: no path exists")
    batch = _batch(lat)
    if n == 0:
        trivial = _trivial_result(lat)
        return (trivial,) * batch[0] if batch else trivial
    _require_label_grids(lat.d, n, k, *batch)

    lows, shape, hops = _walk_windows(lat.d, n, k)
    times = [_axis_times(lat, lows, shape, a) for a in range(lat.d)]
    origin = tuple(-g for g in lows)
    target = (slice(None),) * len(batch) + (n - lows[0],) + origin[1:]

    cur = np.full(batch + shape, np.inf)
    cur[(...,) + origin] = 0.0
    new = cur.copy()
    labels = np.empty((k,) + batch)

    for h, (window, ends) in enumerate(hops):
        # cells enter the windows only before any label reaches them and never
        # re-enter, so what the buffers hold outside the window is never read
        new[window] = cur[window]
        for a, (lo, hi) in enumerate(ends):
            t = times[a][lo]
            # +axis moves leave the base vertex, -axis moves arrive at it
            for src, dst in ((lo, hi), (hi, lo)):
                head = new[dst]
                np.minimum(head, cur[src] + t, out=head)
        cur, new = new, cur
        labels[h] = cur[target]

    rows = labels.T.tolist() if batch else [labels.tolist()]
    results = tuple(ConstrainedResult(*_read_budget(row, k), target_labels=tuple(row)) for row in rows)
    return results if batch else results[0]


def hop_constrained_certified(lat: LatticeSpec, n: int, budgets, free: ConstrainedResult | None = None):
    """T_n(k) for each hop budget k of a schedule: a tuple of path-less ConstrainedResult.

    One hop_constrained_time pass to the largest budget that needs it serves
    every budget. The name is kept because perfbench/tracer.py and
    perfbench/selfcheck.py look it up, as they do kruskal_mst. Under a
    TrialBlock that pass is one block pass, and the result holds one such
    tuple per trial.

    free, the unconstrained result of the same single-trial lattice, answers
    every k >= free.hop_count without a DP: its witness fits the budget, so
    T_n(k) = T_n. Each trial has its own, so a block is passed none.
    """
    if min(budgets) < n:
        raise InfeasibleError(f"hop budget {min(budgets)} below L1 distance {n}: no path exists")
    batch = _batch(lat)
    if n == 0:
        free = _trivial_result(lat)
    shortcut = math.inf if free is None else free.hop_count
    solve = [b for b in budgets if b < shortcut]
    if solve:
        passes = hop_constrained_time(lat, n, max(solve))
        labels = [r.target_labels for r in passes] if batch else [passes.target_labels]
    else:
        labels = [()] * (batch[0] if batch else 1)
    results = tuple(
        tuple(
            ConstrainedResult(free.value, free.hop_count)
            if b >= shortcut
            else ConstrainedResult(*_read_budget(row, b))
            for b in budgets
        )
        for row in labels
    )
    return results if batch else results[0]


def _require_box(radius: int, d: int) -> None:
    """Raise CapacityError when the box [-radius, radius]^d has 2**31 arcs or
    more (the int32 CSR indptr and indices would wrap), or when its float64
    arc times exceed the array budget."""
    arcs = 2 * d * 2 * radius * (2 * radius + 1) ** (d - 1)
    if arcs >= 2**31:
        msg = f"Dijkstra box of radius {radius} in d = {d} has {arcs} arcs, beyond int32 CSR indices"
        raise CapacityError(msg)
    require_array(f"the arc-time array of the Dijkstra box of radius {radius} in d = {d}", arcs)


@functools.lru_cache(maxsize=1)
def _csr_pattern(radius: int, d: int) -> tuple:
    """indptr, indices and COO-to-CSR order of the arcs of the box
    [-radius, radius]^d, and the flat indices of its boundary cells.

    Cells are indexed row-major on the grid of shape (2 * radius + 1,) * d.
    The arcs are listed as _box_csr lists their times: per axis, the +axis
    arcs and then the -axis arcs. The order sorts them by row, then column,
    which is the layout csr_matrix builds from those COO triplets.

    Raises CapacityError, before allocating, as _require_box does.
    """
    _require_box(radius, d)
    cells = (2 * radius + 1) ** d
    idx = np.arange(cells, dtype=np.int32).reshape((2 * radius + 1,) * d)
    rows, cols = [], []
    for a in range(d):
        u = idx[tuple(slice(0, -1) if i == a else slice(None) for i in range(d))].ravel()
        v = idx[tuple(slice(1, None) if i == a else slice(None) for i in range(d))].ravel()
        rows += [u, v]
        cols += [v, u]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(cells + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=cells), out=indptr[1:])
    interior = np.zeros((2 * radius - 1,) * d, dtype=bool)
    boundary = np.flatnonzero(np.pad(interior, 1, constant_values=True))
    pattern = (indptr, cols[order], order, boundary)
    for a in pattern:
        a.flags.writeable = False  # every graph built from the cache shares these
    return pattern


def _box_csr(lat: LatticeSpec, radius: int):
    """Sparse adjacency of the box [-radius, radius]^d with per-edge passage
    times (both arcs), indexed as _csr_pattern indexes it."""
    indptr, indices, order, _ = _csr_pattern(radius, lat.d)
    shape = (2 * radius + 1,) * lat.d
    times = [_axis_times(lat, (-radius,) * lat.d, shape, a).ravel() for a in range(lat.d)]
    # each edge's time serves its +axis and its -axis arc
    data = np.concatenate([t for t in times for _ in range(2)])
    return csr_matrix((data[order], indices, indptr), shape=(indptr.size - 1,) * 2)


# Dijkstra's box never grows past radius RADIUS_CAP_MULTIPLE * n
RADIUS_CAP_MULTIPLE = 64


def _first_radius(n: int) -> int:
    """Radius of Dijkstra's first box for target n: ceil(5n/4) + 8, clamped to the cap."""
    return min((5 * n + 3) // 4 + 8, RADIUS_CAP_MULTIPLE * n)


def require_trial_arrays(d: int, n: int, k: int | None = None, count: int = 0) -> None:
    """Check, before any trial runs, the first arrays a lattice trial for
    target n builds, as the solvers check them: the label grids of a block
    hop-DP pass to budget k over count trials, when such a pass runs first,
    and the arc times of Dijkstra's first box. Raises CapacityError."""
    if k is not None:
        _require_label_grids(d, n, k, count)
    _require_box(_first_radius(n), d)


def unconstrained_time(lat: LatticeSpec, n: int, limit: float | None = None) -> ConstrainedResult:
    """Unconstrained minimum passage time on Z^d to (n, 0, ..., 0).

    Runs Dijkstra on a box of initial radius ceil(5n/4) + 8, clamped to the
    cap RADIUS_CAP_MULTIPLE * n, and doubles the radius (again clamped to
    the cap) until every boundary vertex's distance is at least the target's
    distance; the returned value is then exact for the infinite lattice. A
    certificate that fails at the cap raises CapacityError rather than
    returning an unproven value, as does a box too large for int32 CSR
    indices (see _csr_pattern).

    Dijkstra stops at limit, an inclusive upper bound on T_n that defaults
    to the straight-path time; vertices beyond it read +inf, which changes
    neither the value, the witness nor the certificate. Any hop-DP target
    label is the time of a real walk, so it is a valid limit too. A limit
    below T_n leaves the target unreached in the certified box and raises
    ValueError.

    Distance ties between distinct optimal paths occur with probability zero
    under the continuous passage-time laws; on such ties the reported witness
    path is the deterministic one produced by the sparse Dijkstra routine.
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if n == 0:
        return _trivial_result(lat)

    cap = RADIUS_CAP_MULTIPLE * n
    radius = _first_radius(n)
    if limit is None:
        limit = straight_path_time(lat, n)
    while True:
        shape = (2 * radius + 1,) * lat.d
        source = int(np.ravel_multi_index((radius,) * lat.d, shape))
        target = int(np.ravel_multi_index((radius + n,) + (radius,) * (lat.d - 1), shape))
        dist, pred = _csgraph_dijkstra(
            _box_csr(lat, radius), directed=True, indices=source, return_predecessors=True, limit=limit
        )
        value = float(dist[target])
        if float(dist[_csr_pattern(radius, lat.d)[3]].min()) >= value:
            break
        if radius >= cap:
            msg = f"boundary certificate fails at radius {radius}, the cap {RADIUS_CAP_MULTIPLE}*n"
            raise CapacityError(msg)
        radius = min(2 * radius, cap)
    if math.isinf(value):
        raise ValueError(f"Dijkstra limit {limit} is below the passage time to n = {n}")

    chain = [target]
    while chain[-1] != source:
        chain.append(int(pred[chain[-1]]))
    coords = np.stack(np.unravel_index(chain[::-1], shape), axis=1) - radius
    path = tuple(map(tuple, coords.tolist()))
    return ConstrainedResult(value, len(path) - 1, path)


def enumerate_paths_oracle(lat: LatticeSpec, n: int, budgets) -> tuple:
    """Exhaustive minimum over self-avoiding paths of at most k edges on Z^2,
    for each hop budget k: one value per budget, None when k < n.

    Only for tiny instances (d = 2, every budget at most 9). One search
    serves every budget: it keeps best[j], the least cost found so far over
    paths of at most j edges, which never increases in j. Costs accumulate
    in path order, so values match hop_constrained_time bit for bit.

    Every vertex v of such a path satisfies |v|_1 + |v - t|_1 <= K for the
    target t = (n, 0) and the largest budget K, so the search stays in that
    set's bounding box, x in [-m, n + m] and y in [-m, m] with
    m = floor((K - n) / 2), and loses no path. A prefix of u edges at L1
    distance r from t is cut when u + r > K, or when its cost is at least
    best[u + r]: every completion has at least u + r edges and costs at
    least as much, since passage times are nonnegative.

    When lat.ctx is a TrialBlock, one grid hash per axis serves the whole
    block, the search runs once per trial, and the result holds one tuple of
    values per trial.
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
    batch = _batch(lat)
    if n == 0 or kmax < n:
        values = ((0.0 if n == 0 else None),) * len(budgets)
        return (values,) * batch[0] if batch else values

    m = (kmax - n) // 2
    grids = [_axis_times(lat, (-m, -m), (n + 2 * m + 1, 2 * m + 1), axis).tolist() for axis in (0, 1)]
    if not batch:
        return _path_search(grids, n, m, budgets)
    return tuple(_path_search(trial, n, m, budgets) for trial in zip(*grids))


def _path_search(grids, n: int, m: int, budgets: tuple) -> tuple:
    """enumerate_paths_oracle's search on one lattice, given its two edge-time
    grids (nested lists over the box x in [-m, n + m], y in [-m, m])."""
    kmax = max(budgets)
    target = (n, 0)
    # the neighbours of every vertex inside the box, with the edge time
    adjacent = {}
    for (dx, dy), grid in zip(((1, 0), (0, 1)), grids):
        for x, row in enumerate(grid, -m):
            for y, t in enumerate(row, -m):
                adjacent.setdefault((x, y), []).append(((x + dx, y + dy), t))
                adjacent.setdefault((x + dx, y + dy), []).append(((x, y), t))

    best = [math.inf] * (kmax + 1)

    def rec(pos, cost, used, visited):
        if pos == target:
            for j in range(used, kmax + 1):
                best[j] = min(best[j], cost)
            return
        reach = used + abs(pos[0] - n) + abs(pos[1])
        if reach > kmax or cost >= best[reach]:
            return
        for npos, t in adjacent[pos]:
            if npos not in visited:
                visited.add(npos)
                rec(npos, cost + t, used + 1, visited)
                visited.remove(npos)

    rec((0, 0), 0.0, 0, {(0, 0)})
    return tuple(best[k] if k >= n else None for k in budgets)


def straight_path_time(lat: LatticeSpec, n: int):
    """Passage time of the straight first-axis path through (1,0,..) .. (n,0,..),
    summed left to right; under a TrialBlock, a tuple of one time per trial."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    times = _axis_times(lat, (0,) * lat.d, (n + 1,) + (1,) * (lat.d - 1), 0)
    totals = []
    for row in times.reshape(-1, n).tolist():
        total = 0.0
        for t in row:
            total += t
        totals.append(total)
    return tuple(totals) if _batch(lat) else totals[0]


def linear_path_tail_probe(lat: LatticeSpec, m: int, beta: float, trials: int) -> ProbEstimate:
    """Monte Carlo estimate of P(sum of the first m straight-edge times <= beta*m).

    Trial i uses trial index ctx.trial_index + i under the same master seed.
    Trials run in blocks of at most weights.BLOCK_ELEMENTS // m, one
    passage_time_grid call each.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")

    bases = (np.arange(0, m, dtype=np.int64),) + (0,) * (lat.d - 1)
    cutoff = beta * m
    successes = 0
    for block in TrialBlock(lat.ctx, trials).blocks(weights.BLOCK_ELEMENTS // m):
        times = passage_time_grid(lat.spec, block, 0, bases)
        successes += int(np.count_nonzero(times.sum(axis=1) <= cutoff))
    return wilson_interval(successes, trials)
