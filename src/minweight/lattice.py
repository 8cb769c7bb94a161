"""Hop-constrained and unconstrained minimum passage times on Z^d.

Computations run on finite boxes [-r, r]^d around the origin. Exactness with
respect to the infinite lattice is certified in one of two ways:

* truncation at radius >= k is unconditionally lossless for a hop budget k,
  because a path of at most k edges stays inside the L1 ball of radius k;
* otherwise a boundary certificate: if every boundary vertex's k-hop label
  is already at least the candidate value, a path leaving the box pays at
  least the boundary label before it exits and passage times are
  nonnegative, so it cannot improve.

The hop-constrained solver is a dynamic program over walks indexed by
(vertex, hop); with nonnegative times the walk relaxation is exact for
self-avoiding paths, and the reconstructed walk is made self-avoiding by
splicing out (necessarily zero-weight) cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def grid_index(self, coord) -> tuple:
        return tuple(c + self.radius for c in coord)

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
    the edge count of the witnessing optimal path; path the vertex sequence
    (None when reconstruction was not requested); certified means the finite
    box provably reproduces the infinite-lattice value. k is None for
    unconstrained results.
    """

    value: float
    hop_count: int
    path: tuple | None
    certified: bool
    k: int | None
    n: int


def _axis_coords(box: BoxRegion, axis: int) -> list:
    """Sparse broadcastable coordinate arrays for base vertices on one axis."""
    coords = []
    for i in range(box.d):
        extent = box.side - 1 if i == axis else box.side
        c = np.arange(-box.radius, -box.radius + extent, dtype=np.int64)
        shape = [1] * box.d
        shape[i] = extent
        coords.append(c.reshape(shape))
    return coords


def _axis_times(lat: LatticeSpec, box: BoxRegion, axis: int) -> np.ndarray:
    """Passage times of all +axis edges in the box, indexed by base vertex."""
    return passage_time_grid(lat.spec, lat.ctx, axis, tuple(_axis_coords(box, axis)))


def _lo_slice(d: int, axis: int) -> tuple:
    return tuple(slice(None) if i != axis else slice(None, -1) for i in range(d))


def _hi_slice(d: int, axis: int) -> tuple:
    return tuple(slice(None) if i != axis else slice(1, None) for i in range(d))


def _trivial_result(lat: LatticeSpec, k) -> ConstrainedResult:
    origin = (0,) * lat.d
    return ConstrainedResult(value=0.0, hop_count=0, path=(origin,), certified=True, k=k, n=0)


def _remove_cycles(path: list) -> list:
    """Splice out revisits; at an optimum any such cycle has zero weight."""
    out = []
    seen = {}
    for v in path:
        if v in seen:
            del_from = seen[v] + 1
            for w in out[del_from:]:
                del seen[w]
            del out[del_from:]
        else:
            out.append(v)
            seen[v] = len(out) - 1
    return out


def hop_constrained_time(
    lat: LatticeSpec, n: int, k: int, box_radius: int, want_path: bool = True
) -> ConstrainedResult:
    """Minimum passage time from the origin to (n, 0, ..., 0) over paths of
    at most k edges, restricted to the box of the given radius.

    Labels satisfy d_0(origin) = 0 and
    d_h(v) = min(d_{h-1}(v), min_u adjacent d_{h-1}(u) + t(u, v)).
    The hop count reported is the smallest h at which the target label
    reaches its final value, i.e. the fewest-edge witness. Ties during
    relaxation keep the earlier label (strict improvement only), with
    directions scanned in axis order, +axis before -axis.

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

    box = BoxRegion(box_radius, lat.d)
    times = [_axis_times(lat, box, a) for a in range(lat.d)]
    origin = box.grid_index((0,) * lat.d)
    target = box.grid_index((n,) + (0,) * (lat.d - 1))

    cur = np.full(box.shape, np.inf)
    cur[origin] = 0.0
    target_trace = []
    choices = [] if want_path else None

    for _ in range(k):
        new = cur.copy()
        log = np.full(box.shape, -1, dtype=np.int8) if want_path else None
        for a in range(lat.d):
            lo = _lo_slice(lat.d, a)
            hi = _hi_slice(lat.d, a)
            # +axis moves leave the base vertex, -axis moves arrive at it
            for src, dst, code in ((lo, hi, 2 * a), (hi, lo, 2 * a + 1)):
                cand = cur[src] + times[a]
                if want_path:
                    log[dst][cand < new[dst]] = code
                np.minimum(new[dst], cand, out=new[dst])
        cur = new
        target_trace.append(float(cur[target]))
        if want_path:
            choices.append(log)

    value = target_trace[-1]
    hop_count = k
    for h, tv in enumerate(target_trace, start=1):
        if tv == value:
            hop_count = h
            break

    if box_radius >= k:
        certified = True
    else:
        certified = bool(cur[box.boundary_mask()].min() >= value)

    path = None
    if want_path:
        chain = [target]
        v = target
        h = k
        while h > 0:
            code = int(choices[h - 1][v])
            if code < 0:
                h -= 1
                continue
            a, backwards = divmod(code, 2)
            prev = list(v)
            prev[a] += 1 if backwards else -1
            v = tuple(prev)
            chain.append(v)
            h -= 1
        chain.reverse()
        coords = [box.coord_of(g) for g in chain]
        coords = _remove_cycles(coords)
        path = tuple(coords)
        hop_count = len(path) - 1

    return ConstrainedResult(
        value=value, hop_count=hop_count, path=path, certified=certified, k=k, n=n
    )


def hop_constrained_certified(
    lat: LatticeSpec,
    n: int,
    k: int,
    initial_radius: int | None = None,
    want_path: bool = False,
) -> ConstrainedResult:
    """hop_constrained_time with certificate verification and retry.

    Starts from min(k, initial_radius) (default min(k, 3n)) and enlarges the
    box by +n whenever the boundary certificate fails; radius k certifies
    unconditionally, so the loop terminates with an exact value.
    """
    r = 3 * n if initial_radius is None else initial_radius
    r = min(k, max(r, n))
    step = max(n, 1)
    while True:
        res = hop_constrained_time(lat, n, k, r, want_path=want_path)
        if res.certified:
            return res
        r = min(k, r + step)


def _box_csr(lat: LatticeSpec, box: BoxRegion):
    """Sparse adjacency of the box with per-edge passage times (both arcs)."""
    idx = np.arange(box.cells, dtype=np.int32).reshape(box.shape)
    rows, cols, data = [], [], []
    for a in range(lat.d):
        t = _axis_times(lat, box, a).ravel()
        u = idx[_lo_slice(lat.d, a)].ravel()
        v = idx[_hi_slice(lat.d, a)].ravel()
        rows.append(u)
        cols.append(v)
        data.append(t)
        rows.append(v)
        cols.append(u)
        data.append(t)
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(box.cells, box.cells),
    )


def unconstrained_time(
    lat: LatticeSpec, n: int, radius_cap_multiple: int = 64, want_path: bool = True
) -> ConstrainedResult:
    """Certified unconstrained minimum passage time to (n, 0, ..., 0).

    Runs Dijkstra on a box of initial radius 2n and doubles the radius until
    every boundary vertex's distance is at least the target's distance; the
    returned value is then exact for the infinite lattice and certified is
    always True. Radius growth beyond radius_cap_multiple * n raises
    CapacityError rather than returning an uncertified value.

    Distance ties between distinct optimal paths occur with probability zero
    under the continuous passage-time laws; on such ties the reported witness
    path is the deterministic one produced by the sparse Dijkstra routine.
    """
    if n < 0:
        raise ValueError(f"target abscissa must be nonnegative, got {n}")
    if n == 0:
        return _trivial_result(lat, None)

    radius = 2 * n
    while True:
        if radius > radius_cap_multiple * n:
            raise CapacityError(
                f"boundary certificate requires radius {radius}, "
                f"beyond the cap {radius_cap_multiple}*n"
            )
        box = BoxRegion(radius, lat.d)
        graph = _box_csr(lat, box)
        source = box.flat_index((0,) * lat.d)
        target = box.flat_index((n,) + (0,) * (lat.d - 1))
        dist, pred = _csgraph_dijkstra(
            graph, directed=True, indices=source, return_predecessors=True
        )
        value = float(dist[target])
        boundary = box.boundary_mask().ravel()
        if float(dist[boundary].min()) >= value:
            break
        radius *= 2

    flat_chain = [target]
    v = target
    while v != source:
        v = int(pred[v])
        flat_chain.append(v)
    flat_chain.reverse()
    hop_count = len(flat_chain) - 1
    path = None
    if want_path:
        grid = np.unravel_index(flat_chain, box.shape)
        path = tuple(box.coord_of(g) for g in zip(*grid))
    return ConstrainedResult(
        value=value, hop_count=hop_count, path=path, certified=True, k=None, n=n
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
