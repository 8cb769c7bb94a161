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
from minweight.weights import PassageTimeSpec, SeedContext, TrialBlock, passage_time_grid
from reference import enumerate_paths, passage_time

EXP1 = PassageTimeSpec("exponential", (1.0,))
UNIFORM = PassageTimeSpec("uniform", (0.5, 1.5), param_range=(0.5, 2.0))
PARETO3 = PassageTimeSpec("pareto", (1.0, 3.0), param_range=(0.5, 2.0))


def lat(seed, trial=0, spec=EXP1, d=2):
    return LatticeSpec(d=d, spec=spec, ctx=SeedContext(seed, trial))


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
    assert boundary_mask(3, 2).sum() == 24 and boundary_mask(2, 3).sum() == 125 - 27
    with pytest.raises(ValueError):
        box_index(3, (4, 0))


def test_origin_target():
    res = hop_constrained_time(lat(1), 0, 5)
    assert res.value == 0.0 and res.hop_count == 0 and res.path == ((0, 0),)
    assert unconstrained_time(lat(1), 0).value == 0.0


def test_infeasible_budget():
    with pytest.raises(InfeasibleError):
        hop_constrained_time(lat(1), 4, 3)
    assert enumerate_paths_oracle(lat(1), 4, (3,)) == (None,)
    assert enumerate_paths_oracle(lat(1), 4, (3, 4))[0] is None


def test_tight_budget_forces_straight_path():
    l = lat(42)
    n = 4
    res = hop_constrained_time(l, n, n)
    assert res.value == straight_path_time(l, n)
    assert res.hop_count == n


def test_dp_matches_oracle():
    mismatches = 0
    for seed in range(30):
        for n in (1, 2, 3):
            l = lat(500 + seed)
            budgets = range(n, n + 5)
            for k, oracle in zip(budgets, enumerate_paths_oracle(l, n, budgets)):
                dp = hop_constrained_time(l, n, k)
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
                for k, oracle in zip(budgets, enumerate_paths_oracle(l, n, budgets)):
                    dp = hop_constrained_time(l, n, k)
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
            assert enumerate_paths_oracle(l, n, budgets) == expected, (seed, n)
    # budgets in any order, repeated, or far below the L1 distance
    l = lat(1299, spec=spec)
    budgets = (6, 1, 3, 6, 0)
    assert enumerate_paths_oracle(l, 3, budgets) == tuple(enumerate_paths(l, 3, k) for k in budgets)
    assert enumerate_paths_oracle(l, 0, (0, 4)) == (0.0, 0.0)


@pytest.mark.parametrize("spec", [EXP1, UNIFORM, PARETO3], ids=lambda s: s.kind)
@pytest.mark.parametrize("d", [2, 3])
def test_block_pass_equals_single_trial_passes(spec, d):
    # block sizes 1, 3 and 7 from trial 11, 7 trials cut 3 + 3 + 1 (an uneven
    # last block), budgets above n and the tight budget k = n
    trials = TrialBlock(SeedContext(2**63 + 9, 11), 7)
    for n, k in ((4, 4), (3, 8), (5, 9)):
        expected = [hop_constrained_time(LatticeSpec(d, spec, ctx), n, k) for ctx in trials.contexts()]
        for size in (1, 3, 7):
            got = [r for block in trials.blocks(size) for r in hop_constrained_time(LatticeSpec(d, spec, block), n, k)]
            assert [r.target_labels for r in got] == [r.target_labels for r in expected], (n, k, size)
            assert [(r.value, r.hop_count, r.path) for r in got] == [(r.value, r.hop_count, None) for r in expected]
        schedule = range(n, k + 1)
        block = LatticeSpec(d, spec, trials)
        singles = [hop_constrained_certified(LatticeSpec(d, spec, ctx), n, schedule) for ctx in trials.contexts()]
        assert hop_constrained_certified(block, n, schedule) == tuple(singles)


def test_block_pass_infeasible_and_trivial_targets():
    block = LatticeSpec(2, EXP1, TrialBlock(SeedContext(1), 3))
    with pytest.raises(InfeasibleError):
        hop_constrained_time(block, 4, 3)
    with pytest.raises(InfeasibleError):
        hop_constrained_certified(block, 4, (3, 5))
    assert [r.value for r in hop_constrained_time(block, 0, 2)] == [0.0] * 3
    assert hop_constrained_certified(block, 0, (0, 2)) == ((ConstrainedResult(0.0, 0),) * 2,) * 3


def test_block_label_grids_are_checked_against_the_budget(monkeypatch):
    # one trial's grid fits, the block's grids do not
    cells = lattice.label_grid_cells(2, 6, 10)
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * cells)
    hop_constrained_time(lat(1), 6, 10)
    with pytest.raises(CapacityError, match="over 2 trials"):
        hop_constrained_time(LatticeSpec(2, EXP1, TrialBlock(SeedContext(1), 2)), 6, 10)


@pytest.mark.parametrize("spec", [EXP1, UNIFORM, PARETO3], ids=lambda s: s.kind)
def test_path_oracle_over_a_block_equals_per_trial_searches(spec):
    trials = TrialBlock(SeedContext(77, 3), 5)
    block = LatticeSpec(2, spec, trials)
    for n, budgets in ((0, (0, 3)), (3, (1, 2)), (1, range(0, 6)), (3, range(2, 8))):
        expected = tuple(enumerate_paths_oracle(LatticeSpec(2, spec, ctx), n, budgets) for ctx in trials.contexts())
        assert enumerate_paths_oracle(block, n, budgets) == expected, n


def test_hop_monotonicity():
    l = lat(7)
    values = [hop_constrained_time(l, 3, k).value for k in range(3, 12)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_certified_wrapper():
    l = lat(3)
    (res,) = hop_constrained_certified(l, 4, (12,))
    direct = hop_constrained_time(l, 4, 12)
    assert (res.value, res.hop_count, res.path) == (direct.value, direct.hop_count, None)


def test_unconstrained_certified_and_ordered():
    for seed in range(10):
        l = lat(60 + seed)
        res = unconstrained_time(l, 5)
        straight = straight_path_time(l, 5)
        assert res.value <= straight
        assert res.path[0] == (0, 0) and res.path[-1] == (5, 0)
        assert len(res.path) - 1 == res.hop_count
        assert abs(path_time(l, res.path) - res.value) <= 1e-12 * res.hop_count


def test_unconstrained_matches_saturated_dp():
    l = lat(9)
    n = 3
    res = unconstrained_time(l, n)
    sat = hop_constrained_time(l, n, 169)  # a budget far above the witness's hop count
    assert sat.value == res.value
    assert res.hop_count >= n
    # the DP at a budget the Dijkstra witness fits finds the same value and
    # the same fewest hops
    for spec in (EXP1, UNIFORM, PARETO3):
        for seed in range(20):
            for n in (2, 3, 5):
                l = lat(700 + seed, spec=spec)
                free = unconstrained_time(l, n)
                k = free.hop_count + 4
                dp = hop_constrained_time(l, n, k)
                assert free.hop_count == len(free.path) - 1
                assert (dp.value, dp.hop_count) == (free.value, free.hop_count), (spec, seed, n)


def test_unconstrained_radius_cap(monkeypatch):
    monkeypatch.setattr(lattice, "RADIUS_CAP_MULTIPLE", 1)
    with pytest.raises(CapacityError):
        unconstrained_time(lat(5), 3)


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


def test_unconstrained_cap_clamps_the_first_box(monkeypatch):
    # the start radius ceil(5n/4) + 8 exceeds 2n here; the cap limits it instead of raising
    monkeypatch.setattr(lattice, "RADIUS_CAP_MULTIPLE", 2)
    for n in (1, 2, 3):
        res = unconstrained_time(lat(1), n)
        assert (res.value, res.hop_count, res.path) == dijkstra_from_radius_2n(lat(1), n)


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


def boundary_mask(radius, d):
    """Cells of the box with some coordinate at -radius or radius."""
    mask = np.zeros(box_shape(radius, d), dtype=bool)
    for a in range(d):
        for end in (0, -1):
            mask[tuple(end if i == a else slice(None) for i in range(d))] = True
    return mask


def box_times(lat_spec, radius, axis):
    """Times of all +axis edges in the box, indexed by base vertex."""
    d = lat_spec.d
    ranges = [np.arange(-radius, radius + (i != axis)) for i in range(d)]
    coords = tuple(np.meshgrid(*ranges, indexing="ij"))
    return passage_time_grid(lat_spec.spec, lat_spec.ctx, axis, coords)


def coo_box_csr(lat_spec, radius):
    """The box's sparse adjacency built afresh from COO triplets."""
    shape = box_shape(radius, lat_spec.d)
    cells = int(np.prod(shape))
    idx = np.arange(cells, dtype=np.int32).reshape(shape)
    rows, cols, data = [], [], []
    for a in range(lat_spec.d):
        lo, hi = _ends(lat_spec.d, a)
        t = box_times(lat_spec, radius, a).ravel()
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
        dist, pred = dijkstra(coo_box_csr(lat_spec, radius), indices=source, return_predecessors=True)
        if dist[boundary_mask(radius, d).ravel()].min() >= dist[target]:
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
    # alternate radii so that the one-entry pattern cache is evicted and rebuilt,
    # and take two trials in a row so that a cached pattern is reused
    for radius, d in ((1, 2), (5, 2), (88, 2), (4, 3), (5, 2), (1, 2), (4, 3), (88, 2)):
        for trial in (0, 1):
            cached = lattice._box_csr(lat(17, trial=trial, d=d), radius)
            fresh = coo_box_csr(lat(17, trial=trial, d=d), radius)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(cached, name), getattr(fresh, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (radius, d, name)
            boundary = lattice._csr_pattern(radius, d)[3]
            assert np.array_equal(boundary, np.flatnonzero(boundary_mask(radius, d))), (radius, d)


def test_unconstrained_matches_dijkstra_from_radius_2n(monkeypatch):
    radii = []
    box_csr = lattice._box_csr

    def recording_box_csr(lat_spec, radius):
        radii.append(radius)
        return box_csr(lat_spec, radius)

    monkeypatch.setattr(lattice, "_box_csr", recording_box_csr)
    cases = [(EXP1, seed) for seed in range(40)]
    cases += [(spec, 100 + seed) for spec in (UNIFORM, PARETO3) for seed in range(10)]
    grown = 0
    for spec, seed in cases:
        l = lat(seed, spec=spec)
        radii.clear()
        res = unconstrained_time(l, 4)
        assert (res.value, res.hop_count, res.path) == dijkstra_from_radius_2n(l, 4), (spec, seed)
        grown += len(radii) > 1
    assert grown >= 1  # the doubling branch ran


def test_dijkstra_limit_keeps_value_path_and_certificate(monkeypatch):
    # unconstrained_time stops Dijkstra at the straight-path time, or at the
    # limit its caller passes, here the last target label of a DP pass to
    # ceil(1.5n); without a limit it must see the same boxes, value, hop
    # count and witness
    dijkstra = lattice._csgraph_dijkstra
    boxes, limits = [], []

    def bounded(graph, **kwargs):
        boxes.append(graph.shape[0])
        limits.append(kwargs["limit"])
        return dijkstra(graph, **kwargs)

    def unbounded(graph, **kwargs):
        boxes.append(graph.shape[0])
        return dijkstra(graph, **{key: v for key, v in kwargs.items() if key != "limit"})

    single_edge = PassageTimeSpec("uniform", (0.5, 1.5))  # no detour beats one edge
    cases = [(single_edge, 2, 1, 200 + seed) for seed in range(20)]
    cases += [(EXP1, 2, 4, seed) for seed in range(40)]  # seeds whose first box fails
    cases += [(spec, 2, 9, 300 + seed) for spec in (EXP1, UNIFORM, PARETO3) for seed in range(8)]
    cases += [(spec, 3, 4, 400 + seed) for spec in (EXP1, UNIFORM, PARETO3) for seed in range(3)]
    at_straight = at_label = grown = 0
    for spec, d, n, seed in cases:
        l = lat(seed, spec=spec, d=d)
        straight = straight_path_time(l, n)
        label = hop_constrained_time(l, n, (3 * n + 1) // 2).target_labels[-1]
        outcomes = []
        for dijkstra_fn, limit in ((bounded, None), (bounded, label), (unbounded, None)):
            monkeypatch.setattr(lattice, "_csgraph_dijkstra", dijkstra_fn)
            boxes.clear()
            limits.clear()
            res = unconstrained_time(l, n, limit)
            outcomes.append((res.value, res.hop_count, res.path, tuple(boxes)))
            if dijkstra_fn is bounded:
                assert set(limits) == {straight if limit is None else label}
        assert outcomes[0] == outcomes[1] == outcomes[2], (spec, d, n, seed)
        assert label >= res.value
        at_straight += res.value == straight
        at_label += res.value == label
        grown += len(boxes) > 1
    # dist == limit occurs for both limits, and so does a failed certificate
    assert at_straight >= 20 and at_label >= 20 and grown >= 1


def test_limit_below_the_passage_time_raises():
    l = lat(5)
    t_n = unconstrained_time(l, 6).value
    for limit in (0.5 * t_n, np.nextafter(t_n, 0.0)):
        with pytest.raises(ValueError, match="limit .* n = 6"):
            unconstrained_time(l, 6, limit)


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
                results = hop_constrained_certified(l, n, schedule)
                # one pass at the largest budget
                assert solves == [schedule[-1]]
                for k, res in zip(schedule, results):
                    (single,) = hop_constrained_certified(l, n, (k,))
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
    res = hop_constrained_time(l, n, k)
    assert list(res.target_labels) == full_box_labels(l, n, k, k)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 6),
    spec=st.sampled_from((EXP1, UNIFORM, PARETO3)),
    offsets=st.lists(st.integers(0, 12), min_size=1, max_size=5),
)
def test_constrained_time_invariants(seed, n, spec, offsets):
    l = lat(seed, spec=spec)
    free = unconstrained_time(l, n)
    schedule = sorted({n + o for o in offsets} | {free.hop_count})
    # without free every budget goes through the DP
    values = [r.value for r in hop_constrained_certified(l, n, schedule)]
    straight = straight_path_time(l, n)
    assert all(free.value <= v <= straight for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(v == free.value for k, v in zip(schedule, values) if k >= free.hop_count)
    shortcut = hop_constrained_certified(l, n, schedule, free=free)
    assert [r.value for r in shortcut] == values


def test_straight_path():
    l = lat(2)
    t1 = straight_path_time(l, 1)
    assert t1 == passage_time(l.spec, l.ctx, 0, (0, 0))
    # additivity of the sequential accumulation
    total = straight_path_time(l, 4)
    partial = straight_path_time(l, 2)
    for i in (2, 3):
        partial += passage_time(l.spec, l.ctx, 0, (i, 0))
    assert partial == total
    with pytest.raises(ValueError):
        straight_path_time(l, 0)
    # one time per trial of a block, each summed as that trial's own
    trials = TrialBlock(SeedContext(2, 5), 4)
    for d in (2, 3):
        expected = tuple(straight_path_time(LatticeSpec(d, UNIFORM, ctx), 6) for ctx in trials.contexts())
        assert straight_path_time(LatticeSpec(d, UNIFORM, trials), 6) == expected


def test_straight_path_law_of_large_numbers():
    vals = []
    for trial in range(100):
        l = lat(314, trial=trial)
        vals.append(straight_path_time(l, 10_000) / 10_000)
    mean = sum(vals) / len(vals)
    assert abs(mean - 1.0) < 0.05


def test_tail_probe_boundaries():
    l = lat(8)
    assert linear_path_tail_probe(l, 5, 0.0, 200).point == 0.0
    assert linear_path_tail_probe(l, 5, 100.0, 200).point == 1.0
    with pytest.raises(ValueError):
        linear_path_tail_probe(l, 0, 0.1, 10)


def test_tail_probe_matches_gamma_cdf():
    # sum of 10 exp(1) times <= 1.0 has probability gammainc(10, 1) ~ 1.11e-7;
    # at this trial count the Wilson interval contains it via a zero count
    from scipy.special import gammainc

    l = lat(123)
    est = linear_path_tail_probe(l, 10, 0.1, 200_000)
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
        l = lat(2**63 + 5, trial=first, spec=spec, d=d)
        for beta in np.quantile(sums, [0.1, 0.3, 0.5, 0.7, 0.9]) / m:
            expected = sum(s <= beta * m for s in sums)
            assert linear_path_tail_probe(l, m, beta, trials).successes == expected


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
