import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from minweight import lattice, weights
from minweight.errors import CapacityError, InfeasibleError
from minweight.lattice import (
    ConstrainedResult,
    LatticeSpec,
    enumerate_paths_oracle,
    hop_constrained_certified,
    hop_constrained_time,
    linear_path_tail_probe,
    straight_path_time,
    unconstrained_time,
)
from minweight.weights import PassageTimeSpec, SeedContext, passage_time_grid
from reference import enumerate_paths, meet_over_every_arc, passage_time

EXP1 = PassageTimeSpec("exponential", (1.0,))
UNIFORM = PassageTimeSpec("uniform", (0.5, 1.5), param_range=(0.5, 2.0))
PARETO3 = PassageTimeSpec("pareto", (1.0, 3.0), param_range=(0.5, 2.0))


def lat(seed, trial=0, spec=EXP1, d=2, count=1):
    return LatticeSpec(d=d, spec=spec, ctx=SeedContext(seed, trial, count))


def path_time(lat_spec, path):
    total = 0.0
    for a, b in zip(path, path[1:]):
        base = min(a, b)
        axis = next(i for i in range(len(a)) if a[i] != b[i])
        total += passage_time(lat_spec.spec, lat_spec.ctx, axis, base)
    return total


def test_box_region_indexing():
    # the row-major grid convention of Dijkstra's box, as the references below use it
    assert box_shape(3, 2) == (7, 7)
    assert box_index(3, (0, 0)) == 24
    assert box_index(3, (-3, 2)) == 5
    assert box_coords(3, 2, [5, 24]) == ((-3, 2), (0, 0))
    assert boundary_mask(box_shape(3, 2)).sum() == 24 and boundary_mask(box_shape(2, 3)).sum() == 125 - 27
    assert boundary_mask((4, 3)).sum() == 10
    with pytest.raises(ValueError):
        box_index(3, (4, 0))


def test_origin_target():
    (res,) = hop_constrained_time(lat(1), 0, 5)
    assert res.value == 0.0 and res.hop_count == 0 and res.path == ((0, 0),)
    assert unconstrained_time(lat(1), 0) == (res,)


def test_infeasible_budget():
    with pytest.raises(InfeasibleError):
        hop_constrained_time(lat(1), 4, 3)
    assert enumerate_paths_oracle(lat(1), 4, (3,)) == ((None,),)
    assert enumerate_paths_oracle(lat(1), 4, (3, 4))[0][0] is None


def test_tight_budget_forces_straight_path():
    l = lat(42)
    n = 4
    (res,) = hop_constrained_time(l, n, n)
    assert (res.value,) == straight_path_time(l, n)
    assert res.hop_count == n


def test_dp_matches_oracle():
    mismatches = 0
    for seed in range(30):
        for n in (1, 2, 3):
            l = lat(500 + seed)
            budgets = range(n, n + 5)
            (oracles,) = enumerate_paths_oracle(l, n, budgets)
            for k, oracle in zip(budgets, oracles):
                (dp,) = hop_constrained_time(l, n, k)
                if dp.value != oracle:
                    mismatches += 1
    assert mismatches == 0


def test_dp_matches_oracle_heterogeneous():
    # up to k = 9 the walk region reaches m = 4 cells beyond the segment
    for spec in (UNIFORM, PARETO3):
        for seed in range(10):
            l = lat(900 + seed, spec=spec)
            for n in (1, 2):
                budgets = range(n, 10)
                (oracles,) = enumerate_paths_oracle(l, n, budgets)
                for k, oracle in zip(budgets, oracles):
                    (dp,) = hop_constrained_time(l, n, k)
                    assert dp.value == oracle, (spec, seed, n, k)


@pytest.mark.parametrize("spec", [EXP1, UNIFORM, PARETO3], ids=lambda s: s.kind)
def test_path_oracle_matches_per_budget_search(spec):
    # one search for all budgets equals one search per budget, the
    # infeasible budget n - 1 included; up to k = 9 for the heterogeneous laws
    heterogeneous = spec.param_range[0] != spec.param_range[1]
    for seed in range(20):
        l = lat(1300 + seed, spec=spec)
        for n in (1, 2, 3):
            budgets = range(n - 1, (9 if heterogeneous else n + 4) + 1)
            expected = tuple(enumerate_paths(l, n, k) for k in budgets)
            assert enumerate_paths_oracle(l, n, budgets) == (expected,), (seed, n)
    # budgets in any order, repeated, or far below the L1 distance
    l = lat(1299, spec=spec)
    budgets = (6, 1, 3, 6, 0)
    assert enumerate_paths_oracle(l, 3, budgets) == (tuple(enumerate_paths(l, 3, k) for k in budgets),)
    assert enumerate_paths_oracle(l, 0, (0, 4)) == ((0.0, 0.0),)


def _table_paths(n, kmax):
    """The rows of _path_table(n, kmax) as vertex sequences from the origin,
    each edge read as (axis, base) from the two grids' layout."""
    index, edges = lattice._path_table(n, kmax)
    lows, shape = lattice._box(2, n, (kmax - n) // 2)
    grids = [tuple(side - (a == axis) for a, side in enumerate(shape)) for axis in (0, 1)]
    pad = sum(math.prod(g) for g in grids)
    paths = []
    for row, count in zip(index.tolist(), edges.tolist()):
        assert all(e < pad for e in row[:count]) and all(e == pad for e in row[count:])
        vertices = [(0, 0)]
        for e in row[:count]:
            axis = int(e >= math.prod(grids[0]))
            cell = np.unravel_index(e - axis * math.prod(grids[0]), grids[axis])
            base = tuple(int(c) + lo for c, lo in zip(cell, lows))
            head = tuple(c + (a == axis) for a, c in enumerate(base))
            assert vertices[-1] in (base, head), (n, kmax, row)  # a unit step from the last vertex
            vertices.append(head if vertices[-1] == base else base)
        paths.append(vertices)
    return paths


def _self_avoiding_path_counts(kmax):
    """{(end, k): number of self-avoiding move sequences of k steps from the origin that end at end}."""
    counts = {}
    for k in range(1, kmax + 1):
        for moves in itertools.product(((1, 0), (-1, 0), (0, 1), (0, -1)), repeat=k):
            pos, seen = (0, 0), {(0, 0)}
            for dx, dy in moves:
                pos = (pos[0] + dx, pos[1] + dy)
                if pos in seen:
                    break
                seen.add(pos)
            else:
                counts[pos, k] = counts.get((pos, k), 0) + 1
    return counts


def test_path_table_lists_every_self_avoiding_path_once():
    brute = _self_avoiding_path_counts(7)
    for n in (1, 2, 3):
        for kmax in range(n, 8):
            index, edges = lattice._path_table(n, kmax)
            m = (kmax - n) // 2
            paths = _table_paths(n, kmax)
            for path in paths:
                assert path[-1] == (n, 0) and len(set(path)) == len(path)
                assert all(-m <= x <= n + m and -m <= y <= m for x, y in path)
            assert [len(p) - 1 for p in paths] == edges.tolist() == sorted(edges.tolist())
            assert max(edges) <= kmax
            assert len(set(map(tuple, index.tolist()))) == len(index)
            assert len(index) == sum(brute.get(((n, 0), k), 0) for k in range(1, kmax + 1)), (n, kmax)
            for a in (index, edges):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0
    assert [len(lattice._path_table(n, k)[0]) for n, k in ((1, 5), (2, 6), (3, 7))] == [9, 27, 67]


def test_path_tables_are_built_once_across_seeds():
    lattice._path_table.cache_clear()
    for seed in range(4):
        for n in (1, 2, 3):
            enumerate_paths_oracle(lat(seed, count=3), n, range(n - 1, n + 5))
    info = lattice._path_table.cache_info()
    assert (info.misses, info.currsize) == (3, 3)


def test_path_cost_table_is_checked_against_the_budget():
    # one trial more than the (count, paths) cost table of n = 3, K = 9 fits
    count = weights.ARRAY_BYTES // (8 * len(lattice._path_table(3, 9)[0])) + 1
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="path-cost table.*budget"):
            enumerate_paths_oracle(lat(1, count=count), 3, range(2, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_path_oracle_grids_are_checked_against_the_budget(monkeypatch):
    # at (n, kmax) = (1, 5) one trial's grids hold 49 edges against 9 paths:
    # a 100-trial block's cost table fits the budget, its edge times do not
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * 100 * 9)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="edge-time grids of 49 edges.*over 100 trials.*budget"):
            enumerate_paths_oracle(lat(1, count=100), 1, range(0, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _dp_passes(l):
    return [(r.value, r.hop_count, r.path, r.target_labels) for r in hop_constrained_time(l, 3, 8)]


def _grid_rows(l):
    return passage_time_grid(l.spec, l.ctx, 1, (np.arange(-2, 3)[:, None], np.arange(4))).tolist()


def _oracle_searches(l):
    # the trivial target, an infeasible schedule and two feasible ones
    cases = ((0, (0, 3)), (3, (1, 2)), (1, range(0, 6)), (3, range(2, 8)))
    return list(zip(*(enumerate_paths_oracle(l, n, budgets) for n, budgets in cases)))


# Each routine's answers on a lattice context, one entry per trial.
PER_TRIAL = {
    "hop_constrained_time": _dp_passes,
    "hop_constrained_certified": lambda l: hop_constrained_certified(l, 3, (3, 4, 6, 8)),
    "unconstrained_time": lambda l: unconstrained_time(l, 3),
    "straight_path_time": lambda l: straight_path_time(l, 6),
    "enumerate_paths_oracle": _oracle_searches,
    "passage_time_grid": _grid_rows,
}


@pytest.mark.parametrize("spec", [EXP1, UNIFORM, PARETO3], ids=lambda s: s.kind)
@pytest.mark.parametrize("routine", sorted(PER_TRIAL))
def test_seven_trials_answer_as_their_blocks(routine, spec):
    # one entry per trial, equal to the answers of blocks of one and of
    # three trials (cut 3 + 3 + 1) strung together
    answer = PER_TRIAL[routine]
    trials = SeedContext(2**63 + 9, 11, 7)
    whole = answer(LatticeSpec(2, spec, trials))
    assert len(whole) == 7
    for size in (1, 3):
        parts = [a for block in trials.blocks(size) for a in answer(LatticeSpec(2, spec, block))]
        assert parts == list(whole), size


@pytest.mark.parametrize("spec", [EXP1, UNIFORM, PARETO3], ids=lambda s: s.kind)
@pytest.mark.parametrize("d", [2, 3])
def test_block_pass_equals_single_trial_passes(spec, d):
    # block sizes 1, 3 and 7 from trial 11, 7 trials cut 3 + 3 + 1 (an uneven
    # last block), budgets above n and the tight budget k = n
    trials = SeedContext(2**63 + 9, 11, 7)
    for n, k in ((4, 4), (3, 8), (5, 9)):
        expected = [r for ctx in trials.blocks(1) for r in hop_constrained_time(LatticeSpec(d, spec, ctx), n, k)]
        for size in (3, 7):
            got = [r for part in trials.blocks(size) for r in hop_constrained_time(LatticeSpec(d, spec, part), n, k)]
            assert [r.target_labels for r in got] == [r.target_labels for r in expected], (n, k, size)
            assert [(r.value, r.hop_count, r.path) for r in got] == [(r.value, r.hop_count, None) for r in expected]


def test_block_pass_infeasible_and_trivial_targets():
    block = lat(1, count=3)
    with pytest.raises(InfeasibleError):
        hop_constrained_time(block, 4, 3)
    with pytest.raises(InfeasibleError):
        hop_constrained_certified(block, 4, (3, 5))
    assert [r.value for r in hop_constrained_time(block, 0, 2)] == [0.0] * 3
    assert hop_constrained_certified(block, 0, (0, 2)) == ((ConstrainedResult(0.0, 0),) * 2,) * 3


def test_one_dijkstra_limit_per_trial():
    with pytest.raises(ValueError, match="shorter"):
        unconstrained_time(lat(1, count=3), 4, (1e9, 1e9))


def test_block_label_grids_are_checked_against_the_budget(monkeypatch):
    # one trial's grid fits, the block's grids do not
    cells = lattice.label_grid_cells(2, 6, 10)
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * cells)
    hop_constrained_time(lat(1), 6, 10)
    with pytest.raises(CapacityError, match="over 2 trials"):
        hop_constrained_time(lat(1, count=2), 6, 10)


def test_dp_block_holds_two_label_grids_its_time_grids_and_one_relax_buffer():
    # lattice-decay's first pass, one block of 10 trials at n = 64, k = 96: two
    # label grids, the d edge-time grids transposed to a trailing trial axis,
    # each padded to the box's shape, and one relax buffer, all the size of a
    # label grid, plus 64 KiB
    l, n, k = lat(8, count=10), 64, 96
    _, shape, _ = lattice._walk_windows(2, n, k)
    label = 8 * 10 * math.prod(shape)
    tracemalloc.start()
    try:
        hop_constrained_time(l, n, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 + 2 + 1) * label + 2**16


def test_trial_arrays_return_the_block_width(monkeypatch):
    # the first pass's label grid, or the n straight-path times without a pass
    assert lattice.require_trial_arrays(2, 64, 96) == lattice.label_grid_cells(2, 64, 96) == 97 * 33
    assert lattice.require_trial_arrays(2, 64) == 64
    # one trial's label grid is checked before Dijkstra's first box
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * 97 * 33 - 8)
    with pytest.raises(CapacityError, match="label grid for n = 64, k = 96 takes"):
        lattice.require_trial_arrays(2, 64, 96)
    with pytest.raises(CapacityError, match="Dijkstra box"):
        lattice.require_trial_arrays(2, 64)


def test_hop_monotonicity():
    l = lat(7)
    values = [hop_constrained_time(l, 3, k)[0].value for k in range(3, 12)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_certified_wrapper():
    l = lat(3)
    ((res,),) = hop_constrained_certified(l, 4, (12,))
    (direct,) = hop_constrained_time(l, 4, 12)
    assert (res.value, res.hop_count, res.path) == (direct.value, direct.hop_count, None)


def test_unconstrained_certified_and_ordered():
    for seed in range(10):
        l = lat(60 + seed)
        (res,) = unconstrained_time(l, 5)
        (straight,) = straight_path_time(l, 5)
        assert res.value <= straight
        assert res.path[0] == (0, 0) and res.path[-1] == (5, 0)
        assert len(res.path) - 1 == res.hop_count
        assert abs(path_time(l, res.path) - res.value) <= 1e-12 * res.hop_count


def test_unconstrained_matches_saturated_dp():
    l = lat(9)
    n = 3
    (res,) = unconstrained_time(l, n)
    (sat,) = hop_constrained_time(l, n, 169)  # a budget far above the witness's hop count
    assert sat.value == res.value
    assert res.hop_count >= n
    # the DP at a budget the Dijkstra witness fits finds the same value and
    # the same fewest hops
    for spec in (EXP1, UNIFORM, PARETO3):
        for seed in range(20):
            for n in (2, 3, 5):
                l = lat(700 + seed, spec=spec)
                (free,) = unconstrained_time(l, n)
                k = free.hop_count + 4
                (dp,) = hop_constrained_time(l, n, k)
                assert free.hop_count == len(free.path) - 1
                assert (dp.value, dp.hop_count) == (free.value, free.hop_count), (spec, seed, n)


def test_unconstrained_growth_ends_at_the_array_budget(monkeypatch):
    # seed 5's certificate fails on the radius-2 box, (9, 5) with 152 arcs,
    # which the budget admits; the doubled box, (13, 9), is refused unbuilt
    monkeypatch.setattr(lattice, "_first_radius", lambda n: 2)
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * 152)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"Dijkstra box of shape \(13, 9\)"):
            unconstrained_time(lat(5), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_box_beyond_int32_arcs_raises_before_allocating():
    # d = 8, n = 1: the first box (radius 10) has about 5.8e11 arcs
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="int32"):
            unconstrained_time(lat(1, d=8), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unconstrained_from_radius_1(monkeypatch):
    # a first box narrower than the reference's 2n grows until certified
    monkeypatch.setattr(lattice, "_first_radius", lambda n: 1)
    for n in (1, 2, 3):
        (res,) = unconstrained_time(lat(1), n)
        assert (res.value, res.hop_count, res.path) == dijkstra_from_radius_2n(lat(1), n)


def test_path_sum_slack_covers_every_box_the_budget_admits():
    # the budget refuses the distances of a box of more than 2**25 cells, and
    # a sum of at most 2**25 edge times is off by less than 2**25 * 2**-53
    lattice._require_box((2**25,))
    with pytest.raises(CapacityError, match="distance array"):
        lattice._require_box((2**25 + 1,))
    assert 2**25 * 2.0**-53 <= lattice.PATH_SUM_SLACK


# -- references for the Dijkstra and hop-DP changes -----------------------------


def _ends(d, axis):
    lo = tuple(slice(None, -1) if i == axis else slice(None) for i in range(d))
    hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(d))
    return lo, hi


def box_shape(radius, d):
    return (2 * radius + 1,) * d


def box_index(radius, coord):
    """Flat row-major index of a coordinate of the box [-radius, radius]^d."""
    return int(np.ravel_multi_index(tuple(c + radius for c in coord), box_shape(radius, len(coord))))


def box_coords(radius, d, flat):
    """Coordinates of flat box indices, as tuples of ints."""
    grid = np.unravel_index(flat, box_shape(radius, d))
    return tuple(tuple(int(g) - radius for g in cell) for cell in zip(*grid))


def boundary_mask(shape):
    """Cells of the grid of shape shape with some coordinate at either end of its axis."""
    mask = np.zeros(shape, dtype=bool)
    for a in range(len(shape)):
        for end in (0, -1):
            mask[tuple(end if i == a else slice(None) for i in range(len(shape)))] = True
    return mask


def grid_times(lat_spec, lows, shape, axis):
    """Times of all +axis edges of the grid spanning [lows[a], lows[a] + shape[a]), indexed by base vertex.

    They are read through lattice.passage_time_grid, as the solvers read
    them, so that a test can plant times for both.
    """
    ranges = [np.arange(lo, lo + size - (i == axis)) for i, (lo, size) in enumerate(zip(lows, shape))]
    coords = tuple(np.meshgrid(*ranges, indexing="ij"))
    (times,) = lattice.passage_time_grid(lat_spec.spec, lat_spec.ctx, axis, coords)
    return times


def box_times(lat_spec, radius, axis):
    """Times of all +axis edges in the box, indexed by base vertex."""
    return grid_times(lat_spec, (-radius,) * lat_spec.d, box_shape(radius, lat_spec.d), axis)


def coo_grid_csr(lat_spec, lows, shape):
    """The grid's sparse adjacency built afresh from COO triplets."""
    cells = int(np.prod(shape))
    idx = np.arange(cells, dtype=np.int32).reshape(shape)
    rows, cols, data = [], [], []
    for a in range(lat_spec.d):
        lo, hi = _ends(lat_spec.d, a)
        t = grid_times(lat_spec, lows, shape, a).ravel()
        u, v = idx[lo].ravel(), idx[hi].ravel()
        rows += [u, v]
        cols += [v, u]
        data += [t, t]
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(cells, cells),
    )


def dijkstra_from_radius_2n(lat_spec, n):
    """(value, hop count, path): Dijkstra from radius 2n, doubling until certified."""
    d = lat_spec.d
    radius = 2 * n
    while True:
        source = box_index(radius, (0,) * d)
        target = box_index(radius, (n,) + (0,) * (d - 1))
        graph = coo_grid_csr(lat_spec, (-radius,) * d, box_shape(radius, d))
        dist, pred = dijkstra(graph, indices=source, return_predecessors=True)
        if dist[boundary_mask(box_shape(radius, d)).ravel()].min() >= dist[target]:
            break
        radius *= 2
    chain = [target]
    while chain[-1] != source:
        chain.append(int(pred[chain[-1]]))
    path = box_coords(radius, d, chain[::-1])
    return float(dist[target]), len(chain) - 1, path


def full_box_labels(lat_spec, n, k, radius):
    """Target label after each hop 1..k, relaxing the whole box at every hop."""
    cur = np.full(box_shape(radius, lat_spec.d), np.inf)
    cur[(radius,) * lat_spec.d] = 0.0
    target = (radius + n,) + (radius,) * (lat_spec.d - 1)
    times = [box_times(lat_spec, radius, a) for a in range(lat_spec.d)]
    labels = []
    for _ in range(k):
        new = cur.copy()
        for a, t in enumerate(times):
            lo, hi = _ends(lat_spec.d, a)
            np.minimum(new[hi], cur[lo] + t, out=new[hi])
            np.minimum(new[lo], cur[hi] + t, out=new[lo])
        cur = new
        labels.append(float(cur[target]))
    return labels


def test_cached_csr_equals_fresh_coo_build():
    # Dijkstra boxes (the last is the cube [-88, 88]^2) and two other grids,
    # alternated so that the one-entry pattern cache is evicted and rebuilt,
    # and two trials in a row so that a cached pattern is reused
    boxes = ((2, 1, 1), (2, 4, 5), (2, 64, 48), (3, 3, 4), (2, 4, 5), (2, 1, 1), (3, 3, 4), (2, 0, 88))
    grids = [lattice._box(d, n, radius) for d, n, radius in boxes] + [((-1, 2), (3, 5)), ((0, -2, 1), (2, 3, 4))]
    for lows, shape in grids:
        d = len(shape)
        for trial in (0, 1):
            l = lat(17, trial=trial, d=d)
            cached = lattice._box_csr([lattice._axis_times(l, lows, shape, a)[0] for a in range(d)], shape)
            fresh = coo_grid_csr(l, lows, shape)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(cached, name), getattr(fresh, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (shape, name)
            boundary = lattice._csr_pattern(shape)[3]
            assert np.array_equal(boundary, np.flatnonzero(boundary_mask(shape))), shape


def _stops_derive_from(stops, limit):
    # on every box both searches stop at half the caller's limit, widened by the slack
    return set(stops) == {limit * (0.5 + lattice.PATH_SUM_SLACK)}


def test_unconstrained_matches_dijkstra_from_radius_2n(monkeypatch):
    # the first box as unconstrained_time sizes it, then patched down to
    # radius 2, where certificates fail and the radius doubles
    shapes, stops = [], []
    box_csr, dijkstra = lattice._box_csr, lattice._csgraph_dijkstra

    def recording_box_csr(times, shape):
        shapes.append(shape)
        return box_csr(times, shape)

    def recording_dijkstra(graph, **kwargs):
        stops.append(kwargs["limit"])
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(lattice, "_box_csr", recording_box_csr)
    monkeypatch.setattr(lattice, "_csgraph_dijkstra", recording_dijkstra)
    cases = [(EXP1, seed) for seed in range(40)]
    cases += [(spec, 100 + seed) for spec in (UNIFORM, PARETO3) for seed in range(10)]
    grown = 0
    for first_radius in (lattice._first_radius, lambda n: 2):
        monkeypatch.setattr(lattice, "_first_radius", first_radius)
        for spec, seed in cases:
            l = lat(seed, spec=spec)
            shapes.clear()
            stops.clear()
            (res,) = unconstrained_time(l, 4)
            assert (res.value, res.hop_count, res.path) == dijkstra_from_radius_2n(l, 4), (spec, seed)
            assert _stops_derive_from(stops, *straight_path_time(l, 4))
            assert len(stops) == len(shapes)  # one search per box
            grown += len(shapes) > 1
    assert grown >= 1  # the retry branch ran


def test_dijkstra_limit_keeps_value_path_and_certificate(monkeypatch):
    # unconstrained_time takes its limit from the straight-path time, or from
    # its caller, here the last target label of a DP pass to ceil(1.5n), and
    # stops Dijkstra at half of it. Either limit gives the same value, hop
    # count and witness, and without any limit Dijkstra must also search the
    # same boxes. Each case runs at the first radius and at radius 2, where
    # certificates fail.
    dijkstra = lattice._csgraph_dijkstra
    boxes, seen = [], []

    def bounded(graph, **kwargs):
        boxes.append(graph.shape[0])
        seen.append(kwargs["limit"])
        return dijkstra(graph, **kwargs)

    def unbounded(graph, **kwargs):
        boxes.append(graph.shape[0])
        return dijkstra(graph, **{key: v for key, v in kwargs.items() if key != "limit"})

    single_edge = PassageTimeSpec("uniform", (0.5, 1.5))  # no detour beats one edge
    cases = [(single_edge, 2, 1, 200 + seed) for seed in range(20)]
    cases += [(EXP1, 2, 4, seed) for seed in range(40)]
    cases += [(spec, 2, 9, 300 + seed) for spec in (EXP1, UNIFORM, PARETO3) for seed in range(8)]
    cases += [(spec, 3, 4, 400 + seed) for spec in (EXP1, UNIFORM, PARETO3) for seed in range(3)]
    at_straight = at_label = grown = 0
    for first_radius in (lattice._first_radius, lambda n: 2):
        monkeypatch.setattr(lattice, "_first_radius", first_radius)
        for spec, d, n, seed in cases:
            l = lat(seed, spec=spec, d=d)
            (straight,) = straight_path_time(l, n)
            label = hop_constrained_time(l, n, (3 * n + 1) // 2)[0].target_labels[-1]
            outcomes = []
            for dijkstra_fn, limits in ((bounded, None), (bounded, (label,)), (unbounded, None)):
                monkeypatch.setattr(lattice, "_csgraph_dijkstra", dijkstra_fn)
                boxes.clear()
                seen.clear()
                (res,) = unconstrained_time(l, n, limits)
                outcomes.append((res.value, res.hop_count, res.path, tuple(boxes)))
                if dijkstra_fn is bounded:
                    assert _stops_derive_from(seen, straight if limits is None else label)
            # the certificate counts an unreached boundary at the stop, so boxes follow the limit
            assert outcomes[0][:3] == outcomes[1][:3] and outcomes[0] == outcomes[2], (spec, d, n, seed)
            assert label >= res.value
            at_straight += res.value == straight
            at_label += res.value == label
            grown += len(set(boxes)) > 1
    # dist == limit occurs for both limits, and so does a failed certificate
    assert at_straight >= 20 and at_label >= 20 and grown >= 1


def test_limit_below_the_passage_time_raises():
    l = lat(5)
    t_n = unconstrained_time(l, 6)[0].value
    for limit in (0.5 * t_n, np.nextafter(t_n, 0.0)):
        with pytest.raises(ValueError, match="limit .* n = 6"):
            unconstrained_time(l, 6, (limit,))


def _two_searches(times, shape, n, radius, stop):
    """(dist, pred, ends) of Dijkstra's two searches on the box _box(d, n, radius)
    with +a edge times times[a], each stopping at stop, as _certified_dijkstra runs them."""
    d = len(shape)
    ends = np.ravel_multi_index(((radius, radius + n),) + ((radius, radius),) * (d - 1), shape)
    graph = lattice._box_csr(times, shape)
    dist, pred = dijkstra(graph, directed=True, indices=ends, return_predecessors=True, limit=stop)
    return dist, pred, ends


def _assert_meet_matches_every_arc(times, shape, dist, pred, ends):
    value, cells, arc = meet_over_every_arc(dist, pred, times, shape, ends)
    assert lattice._best_arc(dist, times, shape) == arc
    got, got_cells = lattice._meet(dist, pred, times, shape, ends)
    assert np.float64(got).tobytes() == np.float64(value).tobytes()
    assert got_cells.shape == cells.shape and np.array_equal(got_cells, cells)
    return arc


@pytest.mark.parametrize("d", [2, 3])
def test_meet_matches_the_sum_over_every_arc(d):
    # the searches meet when each stops at half the straight-path time, as
    # unconstrained_time stops them, or never; stopped at a sixteenth of it
    # they mostly miss each other (+inf, no cells)
    met = missed = 0
    n, radius = 5, 3
    lows, shape = lattice._box(d, n, radius)
    for spec in (EXP1, UNIFORM, PARETO3):
        for seed in range(6):
            l = lat(600 + seed, spec=spec, d=d)
            times = [lattice._axis_times(l, lows, shape, a)[0] for a in range(d)]
            (straight,) = straight_path_time(l, n)
            for stop in (straight * (0.5 + lattice.PATH_SUM_SLACK), straight / 16, np.inf):
                arc = _assert_meet_matches_every_arc(times, shape, *_two_searches(times, shape, n, radius, stop))
                met += arc is not None
                missed += arc is None
    assert met >= 36 and missed >= 1


@pytest.mark.parametrize("d", [2, 3])
def test_meet_takes_the_first_of_tied_arcs(d):
    # edge times of 1 and 2 make sums exact and many arcs tie, on axes and
    # directions both; the first in (axis, direction, flat index) order wins
    gen = np.random.default_rng(d)
    n, radius = 4, 2
    _, shape = lattice._box(d, n, radius)
    across = 0
    for _ in range(10):
        times = [
            gen.integers(1, 3, size=tuple(side - (i == a) for i, side in enumerate(shape))).astype(float)
            for a in range(d)
        ]
        dist, pred, ends = _two_searches(times, shape, n, radius, np.inf)
        arc = _assert_meet_matches_every_arc(times, shape, dist, pred, ends)
        ds, dt = dist.reshape((2,) + shape)
        best = ds.flat[ends[1]]
        tied = set()
        for a, t in enumerate(times):
            lo, hi = lattice._arc_ends(d, a)
            for backward, (u, w) in enumerate(((lo, hi), (hi, lo))):
                tied |= {(a, backward, int(i)) for i in np.flatnonzero(ds[u] + t + dt[w] == best)}
        assert len(tied) >= 2 and arc == min(tied)
        across += len({x[:2] for x in tied}) > 1
    assert across  # some ties join arcs of different axes or directions


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    d=st.sampled_from((2, 3)),
    law=st.sampled_from((EXP1, PassageTimeSpec("uniform", (0.5, 1.5)), PassageTimeSpec("pareto", (1.0, 3.0)))),
    heterogeneous=st.booleans(),
    n=st.integers(1, 10),
)
def test_two_searches_match_one_search_from_radius_2n(seed, d, law, heterogeneous, n):
    # the same value, hop count and witness under the straight-path limit,
    # the DP-label limit and no limit; a limit one ulp below T_n is refused
    spec = PassageTimeSpec(law.kind, law.params, (0.5, 2.0) if heterogeneous else (1.0, 1.0))
    l = lat(seed, spec=spec, d=d)
    expected = dijkstra_from_radius_2n(l, n)
    label = hop_constrained_time(l, n, (3 * n + 1) // 2)[0].target_labels[-1]
    for limits in (None, (label,), (np.inf,)):
        (res,) = unconstrained_time(l, n, limits)
        assert (res.value, res.hop_count, res.path) == expected, limits
    with pytest.raises(ValueError, match="below the passage time"):
        unconstrained_time(l, n, (np.nextafter(expected[0], 0.0),))


def test_schedule_matches_per_k_solver(monkeypatch):
    solves = []
    dp = lattice.hop_constrained_time

    def recording_dp(lat_spec, n, k):
        solves.append(k)
        return dp(lat_spec, n, k)

    monkeypatch.setattr(lattice, "hop_constrained_time", recording_dp)
    for d, n, schedule in ((2, 5, (5, 6, 7, 9, 12, 15, 19)), (3, 3, (3, 4, 6, 8, 11))):
        for spec in (EXP1, UNIFORM, PARETO3):
            for seed in range(4):
                l = lat(300 + seed, spec=spec, d=d)
                solves.clear()
                (results,) = hop_constrained_certified(l, n, schedule)
                # one pass at the largest budget
                assert solves == [schedule[-1]]
                for k, res in zip(schedule, results):
                    ((single,),) = hop_constrained_certified(l, n, (k,))
                    assert (res.value, res.hop_count) == (single.value, single.hop_count)
                    labels = full_box_labels(l, n, k, k)  # radius k loses nothing
                    assert res.value == labels[-1], (d, spec, seed, k)
                    assert res.hop_count == labels.index(labels[-1]) + 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    d=st.sampled_from((2, 3)),
    spec=st.sampled_from((EXP1, UNIFORM, PARETO3)),
    n=st.integers(1, 5),
    extra=st.integers(0, 8),
)
def test_walk_windows_keep_every_target_label(seed, d, spec, n, extra):
    # the box of radius k holds every walk of at most k edges, so its labels are exact
    k = n + extra
    l = lat(seed, spec=spec, d=d)
    (res,) = hop_constrained_time(l, n, k)
    assert list(res.target_labels) == full_box_labels(l, n, k, k)
    # each row of the grid enters the hops' row ranges once and leaves them
    # once, so the DP never reads a label a row kept from before it left
    _, shape, rows = lattice._walk_windows(d, n, k)
    inside = np.zeros((k + 2, shape[0]), dtype=np.int8)
    for h, (lo, hi) in enumerate(rows, start=1):
        assert 0 <= lo < hi <= shape[0]
        inside[h, lo:hi] = 1
    for row in np.diff(inside, axis=0).T:
        assert row[row != 0].tolist() in ([1, -1], [])


@pytest.mark.parametrize("d", [2, 3])
def test_walk_windows_keep_a_walk_that_overshoots_the_target(monkeypatch, d):
    # every edge at the target t = (2, 0, ...) costs 100 but the one to
    # t + e_0, which costs 0.5, and every other edge 1: under k = 6 the best
    # walk goes round the target to t + e_0 in 5 hops and steps back along
    # y = 0 at hop 6, from the row just past the target's range of hop 5
    n, k = 2, 6
    target = (n,) + (0,) * (d - 1)

    def planted(spec, ctx, axis, coords):
        base = np.broadcast_arrays(*coords)
        head = [c + (i == axis) for i, c in enumerate(base)]
        at = [np.logical_and.reduce([c == x for c, x in zip(cells, target)]) for cells in (base, head)]
        times = np.where(at[0] | at[1], 100.0, 1.0)
        times[at[0] & (axis == 0)] = 0.5
        return np.broadcast_to(times, (ctx.count, *times.shape)).copy()

    monkeypatch.setattr(lattice, "passage_time_grid", planted)
    l = lat(1, d=d)
    (res,) = hop_constrained_time(l, n, k)
    assert list(res.target_labels) == full_box_labels(l, n, k, k)
    assert (res.value, res.hop_count) == (5.5, 6)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 6),
    spec=st.sampled_from((EXP1, UNIFORM, PARETO3)),
    offsets=st.lists(st.integers(0, 12), min_size=1, max_size=5),
)
def test_constrained_time_invariants(seed, n, spec, offsets):
    l = lat(seed, spec=spec)
    (free,) = unconstrained_time(l, n)
    schedule = sorted({n + o for o in offsets} | {free.hop_count})
    values = [r.value for r in hop_constrained_certified(l, n, schedule)[0]]
    (straight,) = straight_path_time(l, n)
    assert all(free.value <= v <= straight for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(v == free.value for k, v in zip(schedule, values) if k >= free.hop_count)


def test_straight_path():
    l = lat(2)
    (t1,) = straight_path_time(l, 1)
    assert t1 == passage_time(l.spec, l.ctx, 0, (0, 0))
    # additivity of the sequential accumulation
    (total,) = straight_path_time(l, 4)
    (partial,) = straight_path_time(l, 2)
    for i in (2, 3):
        partial += passage_time(l.spec, l.ctx, 0, (i, 0))
    assert partial == total
    with pytest.raises(ValueError):
        straight_path_time(l, 0)
    # each trial's sum adds its edges left to right, as this loop does
    trials = lat(2, trial=5, spec=UNIFORM, count=3)
    expected = []
    for row in passage_time_grid(UNIFORM, trials.ctx, 0, (np.arange(513), 0)).tolist():
        total = 0.0
        for t in row:
            total += t
        expected.append(total)
    assert straight_path_time(trials, 513) == tuple(expected)


def test_straight_path_law_of_large_numbers():
    vals = [t / 10_000 for t in straight_path_time(lat(314, count=100), 10_000)]
    mean = sum(vals) / len(vals)
    assert abs(mean - 1.0) < 0.05


def test_straight_path_is_checked_against_the_budget(monkeypatch):
    # a probe block's (3, 5000) edge times exceed a 1,000-element budget
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="straight path to n = 5000 over 3 trials"):
            linear_path_tail_probe(lat(8, count=3), 5000, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tail_probe_boundaries():
    l = lat(8, count=200)
    assert linear_path_tail_probe(l, 5, 0.0).point == 0.0
    assert linear_path_tail_probe(l, 5, 100.0).point == 1.0
    with pytest.raises(ValueError):
        linear_path_tail_probe(lat(8, count=10), 0, 0.1)


def test_tail_probe_matches_gamma_cdf():
    # sum of 10 exp(1) times <= 1.0 has probability gammainc(10, 1) ~ 1.11e-7;
    # at this trial count the Wilson interval contains it via a zero count
    from scipy.special import gammainc

    est = linear_path_tail_probe(lat(123, count=200_000), 10, 0.1)
    analytic = float(gammainc(10, 1.0))
    assert est.wilson_low <= analytic <= est.wilson_high


def test_tail_probe_counts_match_per_trial_grids(monkeypatch):
    # per-edge scales, a nonzero first trial, blocks of 16 trials and a last block of 7
    spec = PassageTimeSpec("pareto", (1.0, 3.0), param_range=(0.5, 2.0))
    m, trials, first = 5, 103, 11
    monkeypatch.setattr(weights, "BLOCK_ELEMENTS", 16 * m)
    for d in (2, 3):
        sums = []
        for trial in range(first, first + trials):
            l = lat(2**63 + 5, trial=trial, spec=spec, d=d)
            bases = (np.arange(m),) + (np.zeros(m, dtype=np.int64),) * (d - 1)
            sums.append(passage_time_grid(spec, l.ctx, 0, bases).sum())
        l = lat(2**63 + 5, trial=first, spec=spec, d=d, count=trials)
        for beta in np.quantile(sums, [0.1, 0.3, 0.5, 0.7, 0.9]) / m:
            expected = sum(s <= beta * m for s in sums)
            assert linear_path_tail_probe(l, m, beta).successes == expected


def test_lattice_spec_guard():
    with pytest.raises(ValueError):
        LatticeSpec(d=1, spec=EXP1, ctx=SeedContext(1))


def test_oracle_guards():
    l = lat(1)
    with pytest.raises(ValueError, match="k <= 9"):
        enumerate_paths_oracle(l, 2, (3, 10))
    with pytest.raises(ValueError, match="d = 2"):
        enumerate_paths_oracle(lat(1, d=3), 2, (5,))
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_paths_oracle(l, -1, (2,))
    with pytest.raises(ValueError, match="at least one"):
        enumerate_paths_oracle(l, 2, ())
