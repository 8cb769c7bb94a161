import functools
import math
import tracemalloc

import numpy as np
import pytest

from minweight import rng, weights
from minweight.errors import CapacityError, ConfigurationError
from minweight.weights import (
    PassageTimeSpec,
    SeedContext,
    TreeWeightSpec,
    inverse_transform_times,
    passage_time_grid,
    sum_in_order,
    weight_matrix,
    weights_from_vertex,
)
from reference import (
    cdf_tree_weight,
    edge_weight,
    envelope_check,
    hash_words,
    moment_order,
    mu2,
    passage_time,
    passage_time_from_uniform,
    tree_weight_from_uniform,
    uniform,
    unit_vec,
)

# Frozen from the reference mixer (splitmix64-absorb/v1); any change to the
# mixing construction must be caught here.
GOLDEN_TREE_UNIFORM = 0.18094887791389502  # words (1, 42, 0, 1, 2)
GOLDEN_TREE_WEIGHT = 0.4253808621857535  # alpha=0.5, m_min=1, same words
GOLDEN_PASSAGE_TIME = 1.3232249113013437  # exp rates [1,2], seed 7, trial 3, edge (0,0)+x


def test_mixer_identifier_pinned():
    assert rng.MIXER_ID == "splitmix64-absorb/v1"


def test_scalar_vector_mixer_agree():
    words_sets = [
        (1, 42, 0, 1, 2),
        (3, 7, 3, 0, 0, 0),
        (2, 5, 900),
        (5, 2**63 + 11, 4, -3),
    ]
    for ws in words_sets:
        s = hash_words(*ws)
        v = int(rng.hash_words_vec(*[np.uint64(w & (2**64 - 1)) for w in ws]))
        assert s == v


def _loop_digests(words):
    # the reference hash at every index of the words' broadcast
    shape = np.broadcast_shapes(*(np.shape(w) for w in words))
    spread = [np.broadcast_to(w, shape) for w in words]
    out = np.empty(shape, dtype=np.uint64)
    for idx in np.ndindex(shape):
        out[idx] = hash_words(*(int(w[idx]) for w in spread))
    return out


_COL = np.array([[3], [2**63 + 7], [0], [2**64 - 1]], dtype=np.uint64)
_ROW = np.array([[5, 9, 2**40]], dtype=np.uint64)
_ONE = np.array([[[11]]], dtype=np.uint64)


@pytest.mark.parametrize(
    "words",
    [
        (_COL ^ _ROW, 7, _COL, -5, _ONE),
        (9, _COL, np.array([[5, 9, 40]], dtype=np.uint16), 2**63 + 1, _ONE, np.array([[-4, 0, 4]], dtype=np.int16)),
        (3, _ONE, np.array([-8]), _COL, 2**64 - 2, np.array([[-2, 0, 6]])),
        (1, np.uint64(2**64 - 1), -3, np.array([[5]], dtype=np.uint64), np.array([-1]), 0),
        (1, 42, 0, 1, 2),
    ],
    ids=["full-at-first", "full-at-middle", "full-at-last", "one-element", "ints"],
)
def test_hash_words_vec_matches_the_scalar_loop_and_writes_no_word(words):
    # the state reaches the words' broadcast shape at the first, a middle or
    # the last word, or never; read-only words would raise on any write
    kept = []
    for w in words:
        if isinstance(w, np.ndarray):
            w.flags.writeable = False
            kept.append(w.copy())
    try:
        expected = _loop_digests(words)
        h = rng.hash_words_vec(*words)
        assert np.shape(h) == expected.shape and h.dtype == np.uint64
        assert np.array_equal(h, expected)
        # the fused step equals the un-fused cast of the same digests
        u = rng.uniform_vec(*words)
        assert u.shape == expected.shape and u.tobytes() == unit_vec(expected).tobytes()
        arrays = [w for w in words if isinstance(w, np.ndarray)]
        assert all(w.dtype == k.dtype and np.array_equal(w, k) for w, k in zip(arrays, kept))
    finally:
        for w in words:
            if isinstance(w, np.ndarray):
                w.flags.writeable = True


def test_edge_weight_symmetric():
    spec = TreeWeightSpec(alpha=0.5)
    ctx = SeedContext(42, 0)
    assert edge_weight(spec, ctx, 2, 1) == edge_weight(spec, ctx, 1, 2)
    assert edge_weight(spec, ctx, 9, 4) == edge_weight(spec, ctx, 4, 9)


def test_edge_weight_golden():
    spec = TreeWeightSpec(alpha=0.5, m_min=1.0)
    ctx = SeedContext(42, 0)
    u = uniform(rng.STREAM_TREE_WEIGHT, 42, 0, 1, 2)
    assert u == GOLDEN_TREE_UNIFORM
    assert edge_weight(spec, ctx, 1, 2) == GOLDEN_TREE_WEIGHT


def test_edge_weight_rejects_self_loop_and_bad_index():
    spec = TreeWeightSpec(alpha=0.5)
    ctx = SeedContext(1)
    with pytest.raises(ValueError):
        edge_weight(spec, ctx, 3, 3)
    with pytest.raises(ValueError):
        edge_weight(spec, ctx, 0, 2)


def test_forced_uniform_boundary():
    spec = TreeWeightSpec(alpha=0.7)
    assert tree_weight_from_uniform(spec, 1.0, 0.0) == 0.0
    assert tree_weight_from_uniform(spec, 0.5, 0.0) == 0.0


def test_determinism_repeated_calls():
    spec = TreeWeightSpec(alpha=0.3, m_min=0.5, heterogeneous=True)
    ctx = SeedContext(123, 7)
    vals = {edge_weight(spec, ctx, 5, 11) for _ in range(5)}
    assert len(vals) == 1


def test_matrix_matches_scalar_oracle():
    spec = TreeWeightSpec(alpha=0.5, m_min=0.5, heterogeneous=True)
    ctx = SeedContext(42, 3)
    n = 13
    (W,) = weight_matrix(spec, ctx, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                assert W[i - 1, j - 1] == np.inf
            else:
                assert W[i - 1, j - 1] == edge_weight(spec, ctx, i, j, n)
    # a context of one keeps the vertices' shape
    row = weights_from_vertex(spec, ctx, 4, np.arange(1, n + 1))
    assert row.shape == (n,)
    for j in range(1, n + 1):
        if j != 4:
            assert row[j - 1] == W[3, j - 1]


def test_weight_matrix_is_checked_against_the_budget(monkeypatch):
    # one 20 x 20 matrix fits a 400-element budget; a block of two raises
    # naming the matrices, and one of 4,096 (13 MB) hashes no weight
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * 400)
    spec = TreeWeightSpec(alpha=0.5)
    assert weight_matrix(spec, SeedContext(1), 20).shape == (1, 20, 20)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="20 x 20 weight matrices over 2 trials"):
            weight_matrix(spec, SeedContext(1, 0, 2), 20)
        with pytest.raises(CapacityError):
            weight_matrix(spec, SeedContext(1, 0, 4096), 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cdf_endpoints_and_value():
    spec = TreeWeightSpec(alpha=0.5)
    assert cdf_tree_weight(spec, 1.0, 0.0) == 0.0
    assert cdf_tree_weight(spec, 1.0, 1.0) == 1.0
    assert cdf_tree_weight(spec, 1.0, 0.25) == pytest.approx(0.0625, abs=0.0)


def test_cdf_against_empirical():
    spec = TreeWeightSpec(alpha=0.5)
    ctx = SeedContext(2024, 0)
    n = 1415  # ~1e6 edges
    _, _, w = _all_edge_weights(spec, ctx, n)
    emp = np.count_nonzero(w <= 0.25) / w.size
    assert abs(emp - 0.0625) < 0.002


def _all_edge_weights(spec, ctx, n):
    lo0, hi0 = np.triu_indices(n, 1)
    lo = (lo0 + 1).astype(np.uint64)
    hi = (hi0 + 1).astype(np.uint64)
    u = unit_vec(rng.hash_words_vec(rng.STREAM_TREE_WEIGHT, ctx.master_seed, ctx.trial_index, lo, hi))
    if spec.heterogeneous:
        v = unit_vec(rng.hash_words_vec(rng.STREAM_TREE_SCALE, lo, hi))
        scale = spec.m_min + (1.0 - spec.m_min) * v
    else:
        scale = 1.0
    return lo, hi, scale * u**spec.alpha


def test_envelope_check():
    assert envelope_check(TreeWeightSpec(alpha=0.5, m_min=1.0), 200)
    assert envelope_check(TreeWeightSpec(alpha=0.5, m_min=0.5), 1000)
    assert envelope_check(TreeWeightSpec(alpha=0.3, m_min=0.25, heterogeneous=True), 500)
    with pytest.raises(ValueError):
        TreeWeightSpec(alpha=1.2)
    with pytest.raises(ValueError):
        envelope_check(TreeWeightSpec(alpha=0.5), 1)


@pytest.mark.parametrize("alpha,m_min", [(0.5, 1.0), (0.3, 0.5), (0.7, 0.25)])
def test_empirical_cdf_inside_envelope(alpha, m_min):
    # 3-sigma binomial band around the envelope at 20 grid points
    spec = TreeWeightSpec(alpha=alpha, m_min=m_min, heterogeneous=True)
    ctx = SeedContext(99, 1)
    n = 1415
    _, _, w = _all_edge_weights(spec, ctx, n)
    cnt = w.size
    for x in np.linspace(0.05, 1.0, 20):
        emp = np.count_nonzero(w <= x) / cnt
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / cnt)
        low = x ** (1 / alpha) - 3 * se
        high = m_min ** (-1 / alpha) * x ** (1 / alpha) + 3 * se
        assert low <= emp <= high, (x, emp, low, high)


def test_weights_in_unit_interval():
    spec = TreeWeightSpec(alpha=0.7, m_min=0.5, heterogeneous=True)
    ctx = SeedContext(5, 2)
    (W,) = weight_matrix(spec, ctx, 64)
    off = W[~np.eye(64, dtype=bool)]
    assert off.min() >= 0.0 and off.max() <= 1.0


def test_randomness_smoke():
    # distinct edge keys behave like independent uniforms
    spec = TreeWeightSpec(alpha=0.5)
    ctx = SeedContext(77, 0)
    lo, hi, w = _all_edge_weights(spec, ctx, 500)
    u = w**2  # invert alpha=0.5
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002
    # adjacent-key correlation
    a, b = u[:-1], u[1:]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


@pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"])
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_weights_from_vertex_matches_the_unfused_weights(alpha, heterogeneous):
    # alpha = 0.5 takes numpy's sqrt shortcut for ** on both sides; the keys
    # come in the integer types the callers pass, in either order
    spec = TreeWeightSpec(alpha=alpha, m_min=0.5, heterogeneous=heterogeneous)
    block = SeedContext(31, 2, 3)
    rows = [_all_edge_weights(spec, ctx, 40) for ctx in block.blocks(1)]
    lo, hi, _ = rows[0]
    expected = np.stack([w for _, _, w in rows])
    for dtype in (np.uint16, np.uint64, np.int64):
        a, b = lo.astype(dtype), hi.astype(dtype)
        assert weights_from_vertex(spec, block.blocks(1)[0], b, a).tobytes() == expected[0].tobytes()
        assert weights_from_vertex(spec, block, a[None, :], b[None, :]).tobytes() == expected.tobytes()
        assert np.array_equal(a, lo) and np.array_equal(b, hi)


# -- passage times ---------------------------------------------------------


def test_passage_time_forced_boundaries():
    uni = PassageTimeSpec("uniform", (0.5, 1.5))
    assert passage_time_from_uniform(uni, 1.0, 0.0) == 0.5
    expo = PassageTimeSpec("exponential", (1.0,))
    assert passage_time_from_uniform(expo, 1.0, 1.0 - math.exp(-1.0)) == pytest.approx(
        1.0, rel=1e-12
    )
    par = PassageTimeSpec("pareto", (2.0, 3.0))
    assert passage_time_from_uniform(par, 1.0, 0.0) == 2.0


def test_passage_time_golden():
    spec = PassageTimeSpec("exponential", (1.0,), param_range=(1.0, 2.0))
    ctx = SeedContext(7, 3)
    assert passage_time(spec, ctx, 0, (0, 0)) == GOLDEN_PASSAGE_TIME


def test_pareto_shape_guard():
    with pytest.raises(ConfigurationError):
        PassageTimeSpec("pareto", (1.0, 1.5))
    with pytest.raises(ConfigurationError):
        PassageTimeSpec("pareto", (1.0, 2.0))


def test_grid_matches_scalar():
    spec = PassageTimeSpec("pareto", (1.0, 3.0), param_range=(0.5, 2.0))
    ctx = SeedContext(11, 4)
    xs = np.arange(-2, 2)
    ys = np.arange(-2, 3)
    (grid,) = passage_time_grid(spec, ctx, 0, (xs[:, None], ys[None, :]))
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert grid[a, b] == passage_time(spec, ctx, 0, (int(x), int(y)))


@pytest.mark.parametrize("param_range", [(1.0, 1.0), (0.5, 2.0)], ids=["iid", "per-edge"])
@pytest.mark.parametrize("kind,params", [("exponential", (2.0,)), ("uniform", (0.5, 1.5)), ("pareto", (1.0, 3.0))])
def test_grid_matches_scalar_for_every_law(kind, params, param_range):
    spec = PassageTimeSpec(kind, params, param_range)
    block = SeedContext(2**63 + 5, 6, 3)
    xs, ys = np.arange(-2, 3), np.arange(-1, 2)
    for axis in (0, 1):
        grid = passage_time_grid(spec, block, axis, (xs[:, None], ys[None, :]))
        assert grid.shape == (3, 5, 3)
        for t, ctx in enumerate(block.blocks(1)):
            for a, x in enumerate(xs):
                for b, y in enumerate(ys):
                    assert grid[t, a, b] == passage_time(spec, ctx, axis, (int(x), int(y)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "spec",
    [
        PassageTimeSpec("exponential", (2.0,), param_range=(0.5, 2.0)),
        PassageTimeSpec("uniform", (0.5, 1.5), param_range=(0.5, 2.0)),
        PassageTimeSpec("pareto", (1.0, 3.0), param_range=(0.5, 2.0)),
    ],
)
def test_grid_under_a_trial_block_matches_per_trial_grids(spec, d):
    # row t of a block call is trial first + t, bit for bit, on every axis
    gen = np.random.default_rng(d)
    coords = tuple(gen.integers(-40, 40, size=12) for _ in range(d))
    block = SeedContext(2**63 + 9, 17, 5)
    for axis in range(d):
        rows = passage_time_grid(spec, block, axis, coords)
        assert rows.shape == (5, 12)
        expected = np.concatenate([passage_time_grid(spec, ctx, axis, coords) for ctx in block.blocks(1)])
        assert rows.tobytes() == expected.tobytes()
    # d-dimensional coordinate grids, as the hop DP passes them: the trial
    # axis goes ahead of their broadcast shape
    grid = tuple(np.arange(-2, 2 + i).reshape([-1 if j == i else 1 for j in range(d)]) for i in range(d))
    shape = tuple(range(4, 4 + d))
    for axis in range(d):
        rows = passage_time_grid(spec, block, axis, grid)
        assert rows.shape == (5,) + shape
        expected = np.concatenate([passage_time_grid(spec, ctx, axis, grid) for ctx in block.blocks(1)])
        assert rows.tobytes() == expected.tobytes()


def test_seed_context_counts_and_blocks():
    ctx = SeedContext(9, 4, 7)
    assert ctx.trials.dtype == np.uint64 and ctx.trials[:, 0].tolist() == list(range(4, 11))
    assert SeedContext(9, 4).trials.shape == (1, 1)
    blocks = ctx.blocks(3)
    assert [(b.trial_index, b.count) for b in blocks] == [(4, 3), (7, 3), (10, 1)]
    assert all(b.master_seed == 9 for b in blocks)
    assert ctx.blocks(0) == ctx.blocks(1) == [SeedContext(9, t) for t in range(4, 11)]
    for count in (0, -1):
        with pytest.raises(ValueError, match="count"):
            SeedContext(9, 4, count)


def test_sum_in_order_adds_a_vector_left_to_right():
    # a 1-D array's entries are added in order, bit for bit as one numpy add
    # each; spread magnitudes make pairwise summation (np.sum) differ
    gen = np.random.default_rng(12)
    pairwise_differs = 0
    for size in (1, 2, 3, 92, 1000):
        for _ in range(40):
            a = gen.exponential(size=size) * 10.0 ** gen.integers(-6, 7, size=size)
            expected = functools.reduce(np.add, a)
            assert np.float64(sum_in_order(a)).tobytes() == expected.tobytes()
            pairwise_differs += np.sum(a) != expected
    assert pairwise_differs


def _sample_times(spec, n_samples=200_000, seed=31):
    ctx = SeedContext(seed, 0)
    xs = np.arange(n_samples, dtype=np.int64)
    return passage_time_grid(spec, ctx, 0, (xs, np.zeros(n_samples, dtype=np.int64)))


@pytest.mark.parametrize(
    "spec",
    [
        PassageTimeSpec("exponential", (1.0,)),
        PassageTimeSpec("uniform", (0.5, 1.5)),
        PassageTimeSpec("pareto", (1.0, 3.0)),
    ],
)
def test_second_moment_matches_analytic(spec):
    t = _sample_times(spec)
    assert t.min() > 0.0
    m2 = mu2(spec)
    emp = float((t * t).mean())
    se = float((t * t).std()) / math.sqrt(t.size)
    assert abs(emp - m2) < 5 * se


def test_heterogeneous_moment_bound():
    spec = PassageTimeSpec("exponential", (1.0,), param_range=(1.0, 2.0))
    t = _sample_times(spec)
    # mu2 is a sup over rates, so the mixed empirical moment sits below it
    assert float((t * t).mean()) <= mu2(spec)
    assert mu2(spec) == 2.0
    assert moment_order(spec) == math.inf
    assert moment_order(PassageTimeSpec("pareto", (1.0, 2.5))) == 2.5


def test_parameter_heterogeneity_is_trial_independent():
    spec = PassageTimeSpec("exponential", (1.0,), param_range=(1.0, 2.0))
    a = passage_time(spec, SeedContext(1, 0), 0, (5, -2))
    b = passage_time(spec, SeedContext(1, 1), 0, (5, -2))
    assert a != b  # fresh uniform per trial
    # but the same edge key maps to the same rate: exponential quantile ratio
    u_a = uniform(rng.STREAM_LATTICE_TIME, 1, 0, 0, 5, -2)
    u_b = uniform(rng.STREAM_LATTICE_TIME, 1, 1, 0, 5, -2)
    rate_a = -math.log1p(-u_a) / a
    rate_b = -math.log1p(-u_b) / b
    assert rate_a == pytest.approx(rate_b, rel=1e-12)


def test_exponential_rate_scales_the_times():
    one = _sample_times(PassageTimeSpec("exponential", (1.0,), param_range=(1.0, 2.0)), n_samples=1000)
    two = _sample_times(PassageTimeSpec("exponential", (2.0,), param_range=(1.0, 2.0)), n_samples=1000)
    assert np.array_equal(two, one / 2)


def test_inverse_transform_vector_kinds():
    u = np.array([0.0, 0.5, 0.9])
    expo = inverse_transform_times(PassageTimeSpec("exponential", (2.0,)), 2.0, u)
    assert expo[0] == 0.0 and np.all(np.diff(expo) > 0)
    uni = inverse_transform_times(PassageTimeSpec("uniform", (1.0, 3.0)), 1.0, u)
    assert uni[0] == 1.0 and uni[2] == pytest.approx(2.8)


@pytest.mark.parametrize(
    "spec",
    [
        PassageTimeSpec("exponential", (2.0,)),
        PassageTimeSpec("uniform", (1.0, 3.0)),
        PassageTimeSpec("pareto", (1.0, 3.0)),
    ],
)
def test_inverse_transform_writes_only_to_out(spec):
    u = np.array([0.0, 0.25, 0.5, 0.9])
    theta = np.array([0.5, 1.0, 1.5, 2.0])
    kept = u.copy()
    times = inverse_transform_times(spec, theta, u)
    assert times is not u and u.tobytes() == kept.tobytes()
    assert inverse_transform_times(spec, theta, u, out=u) is u
    assert u.tobytes() == times.tobytes()


def _warm_peak(call):
    # tracemalloc peak of a warm call, and the bytes of what it returns
    call()
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,params", [("exponential", (1.0,)), ("uniform", (0.5, 1.5)), ("pareto", (1.0, 3.0))])
def test_passage_time_grid_holds_two_grids(kind, params):
    # a lattice-decay Dijkstra grid: the hash state and the uniforms, which
    # become the times, plus numpy's broadcast buffer
    spec = PassageTimeSpec(kind, params)
    coords = (np.arange(160)[:, None], np.arange(97)[None, :])
    peak, size = _warm_peak(lambda: passage_time_grid(spec, SeedContext(8, 3), 0, coords))
    assert size == 160 * 97 * 8
    assert peak <= 2.7 * size


@pytest.mark.parametrize("dtype", [np.uint16, np.uint64])
def test_weights_from_vertex_holds_two_blocks_besides_the_keys(dtype):
    # a yj-prefix sub-block, 64 trials at n = 512: the two edge keys, the
    # hash state and the uniforms, which become the weights
    gen = np.random.default_rng(3)
    rows = np.stack([gen.permutation(512) + 1 for _ in range(64)]).astype(dtype)
    spec = TreeWeightSpec(alpha=0.5)
    peak, size = _warm_peak(lambda: weights_from_vertex(spec, SeedContext(2, 5, 64), rows[:, :1], rows[:, 1:]))
    assert size == 64 * 511 * 8
    assert peak <= 4.5 * size
