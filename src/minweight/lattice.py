"""Hop-constrained and unconstrained minimum passage times on Z^d.

Computations run on finite boxes [-r, r]^d around the origin. Exactness with
respect to the infinite lattice is certified in one of two ways:

* the hop DP by containment: it relaxes only cells that a walk of at most
  k edges to the target can visit, and when the box holds all of them,
  which radius k always does, the box cuts no such walk;
* Dijkstra by a boundary certificate: if every boundary vertex's distance
  is already at least the target's, a path leaving the box pays at least
  that before it exits and passage times are nonnegative, so it cannot
  improve.

The hop-constrained solver is a dynamic program over walks indexed by
(vertex, hop); with nonnegative times the walk relaxation is exact for
self-avoiding paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import CapacityError, InfeasibleError
from .stats import ProbEstimate, wilson_interval
from .weights import PassageTimeSpec, SeedContext, _passage_times, passage_time_grid


@dataclass(frozen=True)
class LatticeSpec:
    """Dimension, passage-time law, and randomness root for one lattice model."""

    d: int
    spec: PassageTimeSpec
    ctx: SeedContext

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"lattice dimension must be at least 2, got {self.d}")


class BoxRegion:
    """The box [-r, r]^d with row-major vertex indexing."""

    def __init__(self, radius: int, d: int):
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        self.radius = radius
        self.d = d
        self.side = 2 * radius + 1
        self.shape = (self.side,) * d
        self.cells = self.side**d

    def flat_index(self, coord) -> int:
        idx = 0
        for c in coord:
            if abs(c) > self.radius:
                raise ValueError(f"coordinate {coord} outside radius {self.radius}")
            idx = idx * self.side + (c + self.radius)
        return idx

    def coord_of(self, grid_index) -> tuple:
        return tuple(int(g) - self.radius for g in grid_index)

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for a in range(self.d):
            sl0 = tuple(slice(None) if i != a else 0 for i in range(self.d))
            sl1 = tuple(slice(None) if i != a else -1 for i in range(self.d))
            mask[sl0] = True
            mask[sl1] = True
        return mask


@dataclass(frozen=True)
class ConstrainedResult:
    """Outcome of one passage-time computation.

    value is the (possibly hop-constrained) minimum passage time; hop_count
    the edge count of the witnessing optimal path. path is the vertex
    sequence of the Dijkstra witness of unconstrained_time, or the
    one-vertex path at n = 0; the hop DP computes values only and leaves it
    None. certified means the finite box provably reproduces the
    infinite-lattice value. k is None for unconstrained results.
    """

    value: float
    hop_count: int
    path: tuple | None
    certified: bool
    k: int | None
    n: int
    # set by hop_constrained_time only: the target label after each hop 1..k
    target_labels: tuple = field(default=(), repr=False, compare=False)


def _axis_times(lat: LatticeSpec, lows: tuple, shape: tuple, axis: int) -> np.ndarray:
    """Passage times of the +axis edges of the grid spanning
    [lows[i], lows[i] + shape[i]) on each axis i, indexed by base vertex."""
    coords = []
    for i, (lo, size) in enumerate(zip(lows, shape)):
        c = np.arange(lo, lo + size - (i == axis), dtype=np.int64)
        coords.append(c.reshape([-1 if j == i else 1 for j in range(len(shape))]))
    return passage_time_grid(lat.spec, lat.ctx, axis, tuple(coords))


@functools.lru_cache(maxsize=256)
def _walk_windows(d: int, n: int, k: int, r: int) -> tuple:
    """Cells the hop DP relaxes at each hop: those a walk of at most k edges
    from the origin to t = (n, 0, ..., 0) can visit, within the box [-r, r]^d.

    After h hops such a walk is at some v with |v|_1 <= h and
    |v - t|_1 <= k - h, and every vertex of it satisfies
    |v|_1 + |v - t|_1 <= k. Per axis a, the window of hop h therefore
    intersects the box [-r, r], the origin cube [-h, h], the target cube
    [t_a - (k - h + 1), t_a + (k - h + 1)] (the base of a hop-h move is one
    hop farther from t than its head) and the bounding box of that ellipse,
    [-m, t_a + m] with m = floor((k - n) / 2).

    Returns (certified, lows, shape, hops). Labels live on the grid spanning
    [lows[a], lows[a] + shape[a]) on each axis a. hops[h - 1] holds the
    window of hop h in grid slices and, per axis a, the slices (lo, hi) of
    the base and head vertices of its +a edges; lo also indexes that axis's
    edge-time array, keyed by base vertex on the same grid. certified is
    True when the box clips no window; without the box the windows fill that
    bounding box, so this holds iff r >= n + m.
    """
    m = (k - n) // 2
    target = (n,) + (0,) * (d - 1)
    spans = [
        [(max(-h, t - k + h - 1, -m, -r), min(h, t + k - h + 1, t + m, r)) for t in target]
        for h in range(1, k + 1)
    ]
    lows = tuple(min(hop[a][0] for hop in spans) for a in range(d))
    shape = tuple(max(hop[a][1] for hop in spans) - lows[a] + 1 for a in range(d))

    hops = []
    for hop in spans:
        window = tuple(slice(lo - g, hi - g + 1) for (lo, hi), g in zip(hop, lows))
        ends = tuple(
            (
                window[:a] + (slice(lo - lows[a], hi - lows[a]),) + window[a + 1 :],
                window[:a] + (slice(lo - lows[a] + 1, hi - lows[a] + 1),) + window[a + 1 :],
            )
            for a, (lo, hi) in enumerate(hop)
        )
        hops.append((window, ends))
    return r >= n + m, lows, shape, tuple(hops)


def _trivial_result(lat: LatticeSpec, k) -> ConstrainedResult:
    origin = (0,) * lat.d
    return ConstrainedResult(value=0.0, hop_count=0, path=(origin,), certified=True, k=k, n=0)


def _read_budget(labels, k: int) -> tuple:
    """(value, hop count) of budget k from the target labels of a DP pass of budget >= k.

    The hop count is the smallest h at which the target label reaches its
    final value, i.e. the fewest-edge witness; labels never increase in h.
    """
    value = labels[k - 1]
    return value, labels.index(value) + 1


def hop_constrained_time(lat: LatticeSpec, n: int, k: int, box_radius: int) -> ConstrainedResult:
    """Minimum passage time from the origin to (n, 0, ..., 0) over paths of
    at most k edges, restricted to the box of the given radius.

    Labels satisfy d_0(origin) = 0 and
    d_h(v) = min(d_{h-1}(v), min_u adjacent d_{h-1}(u) + t(u, v)).
    Hop h relaxes only its window of _walk_windows. Every prefix of every
    walk of at most k edges to the target lies in the windows of its hops,
    and rounded addition is monotone, so the target label after each hop is
    the whole box's, bit for bit. The hop count is that of _read_budget.
    certified is True when the box clips no window, so that it cuts no walk
    and the value is the infinite lattice's; radius k always qualifies.

    The result also carries the target label after every hop, so one pass
    answers every smaller budget as well (see hop_constrained_certified).

    Raises InfeasibleError when k < n (the L1 distance) and ValueError when
    the box does not contain the target.
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if k < n:
        raise InfeasibleError(f"hop budget {k} below L1 distance {n}: no path exists")
    if box_radius < n:
        raise ValueError(f"box radius {box_radius} does not contain the target at {n}")
    if n == 0:
        return _trivial_result(lat, k)

    certified, lows, shape, hops = _walk_windows(lat.d, n, k, box_radius)
    times = [_axis_times(lat, lows, shape, a) for a in range(lat.d)]
    origin = tuple(-g for g in lows)
    target = (n - lows[0],) + origin[1:]

    cur = np.full(shape, np.inf)
    cur[origin] = 0.0
    new = cur.copy()
    labels = []

    for window, ends in hops:
        # cells enter the windows only before any label reaches them and never
        # re-enter, so what the buffers hold outside the window is never read
        new[window] = cur[window]
        for a, (lo, hi) in enumerate(ends):
            t = times[a][lo]
            # +axis moves leave the base vertex, -axis moves arrive at it
            for src, dst in ((lo, hi), (hi, lo)):
                np.minimum(new[dst], cur[src] + t, out=new[dst])
        cur, new = new, cur
        labels.append(float(cur[target]))

    value, hop_count = _read_budget(labels, k)
    return ConstrainedResult(
        value=value,
        hop_count=hop_count,
        path=None,
        certified=certified,
        k=k,
        n=n,
        target_labels=tuple(labels),
    )


def hop_constrained_certified(lat: LatticeSpec, n: int, k, free: ConstrainedResult | None = None):
    """Certified T_n(k) for one hop budget k, or for each budget of a schedule.

    One hop_constrained_time pass to the largest budget K serves every
    budget. Its box has radius K, which holds every walk of at most K edges,
    so every value is exact.

    free, the unconstrained result of the same lattice, answers every
    k >= free.hop_count without a DP: its witness fits the budget, so
    T_n(k) = T_n.

    Returns a ConstrainedResult without a path for an int k, and a tuple of
    them in schedule order for a sequence of budgets.
    """
    single = np.ndim(k) == 0
    budgets = (k,) if single else tuple(k)
    if min(budgets) < n:
        raise InfeasibleError(f"hop budget {min(budgets)} below L1 distance {n}: no path exists")
    if n == 0:
        free = _trivial_result(lat, None)
    shortcut = math.inf if free is None else free.hop_count
    solve = [b for b in budgets if b < shortcut]
    if solve:
        top = max(solve)
        labels = hop_constrained_time(lat, n, top, top).target_labels

    out = []
    for b in budgets:
        if b >= shortcut:
            out.append(ConstrainedResult(free.value, free.hop_count, None, True, b, n))
        else:
            out.append(ConstrainedResult(*_read_budget(labels, b), None, True, b, n))
    return out[0] if single else tuple(out)


@functools.lru_cache(maxsize=1)
def _csr_pattern(radius: int, d: int) -> tuple:
    """indptr, indices and COO-to-CSR order of the arcs of the box [-radius, radius]^d.

    The arcs are listed as _box_csr lists their times: per axis, the +axis
    arcs and then the -axis arcs. The order sorts them by row, then column,
    which is the layout csr_matrix builds from those COO triplets.
    """
    box = BoxRegion(radius, d)
    idx = np.arange(box.cells, dtype=np.int32).reshape(box.shape)
    rows, cols = [], []
    for a in range(d):
        u = idx[tuple(slice(0, -1) if i == a else slice(None) for i in range(d))].ravel()
        v = idx[tuple(slice(1, None) if i == a else slice(None) for i in range(d))].ravel()
        rows += [u, v]
        cols += [v, u]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(box.cells + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=box.cells), out=indptr[1:])
    pattern = (indptr, cols[order], order)
    for a in pattern:
        a.flags.writeable = False  # every graph built from the cache shares these
    return pattern


def _box_csr(lat: LatticeSpec, box: BoxRegion):
    """Sparse adjacency of the box with per-edge passage times (both arcs)."""
    indptr, indices, order = _csr_pattern(box.radius, box.d)
    times = [_axis_times(lat, (-box.radius,) * box.d, box.shape, a).ravel() for a in range(lat.d)]
    # each edge's time serves its +axis and its -axis arc
    data = np.concatenate([t for t in times for _ in range(2)])
    return csr_matrix((data[order], indices, indptr), shape=(box.cells, box.cells))


def unconstrained_time(lat: LatticeSpec, n: int, radius_cap_multiple: int = 64) -> ConstrainedResult:
    """Certified unconstrained minimum passage time to (n, 0, ..., 0).

    Runs Dijkstra on a box of initial radius ceil(5n/4) + 8, clamped to the
    cap radius_cap_multiple * n, and doubles the radius (again clamped to
    the cap) until every boundary vertex's distance is at least the target's
    distance; the returned value is then exact for the infinite lattice and
    certified is always True. A certificate that fails at the cap raises
    CapacityError rather than returning an uncertified value.

    Dijkstra stops at the straight-path time, an upper bound on the target's
    distance (the limit is inclusive); vertices beyond it read +inf, which
    changes neither the value, the witness nor the certificate.

    Distance ties between distinct optimal paths occur with probability zero
    under the continuous passage-time laws; on such ties the reported witness
    path is the deterministic one produced by the sparse Dijkstra routine.
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if n == 0:
        return _trivial_result(lat, None)
    if radius_cap_multiple < 1:
        raise CapacityError(f"the cap {radius_cap_multiple}*n leaves the target outside the box")

    cap = radius_cap_multiple * n
    radius = min((5 * n + 3) // 4 + 8, cap)
    limit = straight_path_time(lat, n)
    while True:
        box = BoxRegion(radius, lat.d)
        graph = _box_csr(lat, box)
        source = box.flat_index((0,) * lat.d)
        target = box.flat_index((n,) + (0,) * (lat.d - 1))
        dist, pred = _csgraph_dijkstra(
            graph, directed=True, indices=source, return_predecessors=True, limit=limit
        )
        value = float(dist[target])
        boundary = box.boundary_mask().ravel()
        if float(dist[boundary].min()) >= value:
            break
        if radius >= cap:
            raise CapacityError(
                f"boundary certificate fails at radius {radius}, "
                f"the cap {radius_cap_multiple}*n"
            )
        radius = min(2 * radius, cap)

    flat_chain = [target]
    v = target
    while v != source:
        v = int(pred[v])
        flat_chain.append(v)
    flat_chain.reverse()
    grid = np.unravel_index(flat_chain, box.shape)
    path = tuple(box.coord_of(g) for g in zip(*grid))
    return ConstrainedResult(
        value=value, hop_count=len(path) - 1, path=path, certified=True, k=None, n=n
    )


def enumerate_paths_oracle(lat: LatticeSpec, n: int, k: int, box_radius: int):
    """Exhaustive minimum over self-avoiding paths of at most k edges.

    Only for tiny instances (d = 2, box_radius <= 4, k <= 9). Returns the
    minimum passage time, or None when no such path exists. Costs accumulate
    in path order, so values match hop_constrained_time bit for bit.
    """
    if lat.d != 2:
        raise ValueError("oracle is limited to d = 2")
    if box_radius > 4:
        raise ValueError(f"oracle is limited to box_radius <= 4, got {box_radius}")
    if k > 9:
        raise ValueError(f"oracle is limited to k <= 9, got {k}")
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if n == 0:
        return 0.0
    if k < n or box_radius < n:
        return None

    target = (n, 0)
    r = box_radius
    # time of every edge inside the box, keyed by (base vertex, axis)
    edge_time = {}
    for axis in (0, 1):
        xs = np.arange(-r, r + axis, dtype=np.int64)
        ys = np.arange(-r, r + 1 - axis, dtype=np.int64)
        grid = passage_time_grid(lat.spec, lat.ctx, axis, (xs[:, None], ys[None, :])).tolist()
        for x, row in zip(xs.tolist(), grid):
            for y, t in zip(ys.tolist(), row):
                edge_time[(x, y), axis] = t

    best = math.inf
    moves = ((1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1))

    def rec(pos, cost, hops_left, visited):
        nonlocal best
        if pos == target:
            if cost < best:
                best = cost
            return
        if cost >= best:
            return
        dist = abs(pos[0] - target[0]) + abs(pos[1] - target[1])
        if dist > hops_left:
            return
        for dx, dy, axis in moves:
            npos = (pos[0] + dx, pos[1] + dy)
            if abs(npos[0]) > r or abs(npos[1]) > r or npos in visited:
                continue
            base = min(pos, npos)
            visited.add(npos)
            rec(npos, cost + edge_time[base, axis], hops_left - 1, visited)
            visited.remove(npos)

    rec((0, 0), 0.0, k, {(0, 0)})
    return None if math.isinf(best) else best


def straight_path_time(lat: LatticeSpec, n: int) -> float:
    """Passage time of the straight first-axis path through (1,0,..) .. (n,0,..)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    bases = [np.arange(0, n, dtype=np.int64)] + [np.zeros(n, dtype=np.int64)] * (lat.d - 1)
    times = passage_time_grid(lat.spec, lat.ctx, 0, tuple(bases))
    total = 0.0
    for t in times.tolist():
        total += t
    return total


def linear_path_tail_probe(
    lat: LatticeSpec, m: int, beta: float, trials: int, chunk: int = 1 << 16
) -> ProbEstimate:
    """Monte Carlo estimate of P(sum of the first m straight-edge times <= beta*m).

    Trial i uses trial index ctx.trial_index + i under the same master seed.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")

    bases = (np.arange(0, m, dtype=np.int64)[None, :],) + (0,) * (lat.d - 1)
    cutoff = beta * m
    successes = 0
    start = lat.ctx.trial_index
    for t0 in range(start, start + trials, chunk):
        t1 = min(t0 + chunk, start + trials)
        tvec = np.arange(t0, t1, dtype=np.uint64)[:, None]
        times = _passage_times(lat.spec, lat.ctx.master_seed, tvec, 0, bases)
        successes += int(np.count_nonzero(times.sum(axis=1) <= cutoff))
    return wilson_interval(successes, trials)
