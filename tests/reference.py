"""Scalar reference implementations of the package's sampling kernels and
exact oracles, and the analytic laws the tests check samples against.

The package draws all randomness through array kernels
(``rng.hash_words_vec``, ``weights.weights_from_vertex`` /
``weights.weight_matrix`` and ``weights.passage_time_grid``). The loop
versions below compute the same quantities one word tuple at a time, in
plain Python integers; the tests require the kernels to agree with them bit
for bit. The law helpers (tree-weight cdf and envelope constants,
passage-time moments, the Bernoulli tail bound) are plain functions of the
spec. The oracles (Prufer decoding one sequence at a time, and the path
search run once per hop budget) are the references of the package's batched
ones: ``trees.all_labelled_trees`` and ``lattice.enumerate_paths_oracle``.
The per-trial Y_j path (one scalar Fisher-Yates prefix, then the row rule on
the full weight matrix) is the reference of the block kernel
``trees.sample_yj``.
"""

from __future__ import annotations

import math

import numpy as np

from minweight import rng
from minweight.rng import _INIT, _M1, _M2, _MASK, _U53
from minweight.lattice import LatticeSpec
from minweight.trees import CompleteInstance
from minweight.weights import (
    PassageTimeSpec,
    SeedContext,
    TreeWeightSpec,
    inverse_transform_times,
    passage_time_grid,
)

# -- mixer ----------------------------------------------------------------------


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit word (scalar reference version)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def hash_words(*words: int) -> int:
    """Absorb a word tuple into a 64-bit digest.

    Negative words are reduced modulo 2**64 (two's complement), which is how
    signed lattice coordinates enter the mixer.
    """
    h = _INIT
    for w in words:
        h = mix64(h ^ (w & _MASK))
    return h


def unit(h: int) -> float:
    """Map a 64-bit digest to the uniform grid {0, 1, ..., 2**53 - 1} / 2**53.

    The result lies in [0, 1): zero is attainable (probability 2**-53), one
    is not.
    """
    return (h >> 11) * _U53


def uniform(*words: int) -> float:
    """Uniform [0, 1) variate attached to a word tuple."""
    return unit(hash_words(*words))


# -- tree weights ---------------------------------------------------------------


def _edge_key(i: int, j: int, n: int) -> tuple:
    if i == j:
        raise ValueError(f"self-loop ({i},{i}) has no weight")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"vertex indices must lie in 1..{n}, got ({i},{j})")
    return (i, j) if i < j else (j, i)


def edge_scale(spec: TreeWeightSpec, i: int, j: int) -> float:
    """Per-edge scale m_e in [m_min, 1], a fixed function of the edge key."""
    if not spec.heterogeneous:
        return 1.0
    lo, hi = (i, j) if i < j else (j, i)
    v = uniform(rng.STREAM_TREE_SCALE, lo, hi)
    return spec.m_min + (1.0 - spec.m_min) * v


def tree_weight_from_uniform(spec: TreeWeightSpec, m_e: float, u: float) -> float:
    """Inverse-transform map u -> m_e * u**alpha (test hook for forced u).

    The power goes through the numpy array ufunc (0-d and scalar powers take
    a different libm path) so that scalar and vectorized sampling agree bit
    for bit.
    """
    return m_e * float((np.array([u], dtype=np.float64) ** spec.alpha)[0])


def edge_weight(spec: TreeWeightSpec, ctx: SeedContext, i: int, j: int, n: int | None = None) -> float:
    """Weight of the unordered complete-graph edge {i, j}, in [0, 1].

    Symmetric by construction: the uniform variate is attached to the sorted
    key, so edge_weight(i, j) == edge_weight(j, i) exactly.
    """
    lo, hi = _edge_key(i, j, n if n is not None else max(i, j))
    u = uniform(rng.STREAM_TREE_WEIGHT, ctx.master_seed, ctx.trial_index, lo, hi)
    return tree_weight_from_uniform(spec, edge_scale(spec, lo, hi), u)


def envelope_d1(spec: TreeWeightSpec) -> float:
    """Lower envelope constant D1 of the tree-weight cdf."""
    return 1.0


def envelope_d2(spec: TreeWeightSpec) -> float:
    """Upper envelope constant D2 = m_min**(-1/alpha) of the tree-weight cdf."""
    return spec.m_min ** (-1.0 / spec.alpha)


def cdf_tree_weight(spec: TreeWeightSpec, m_e: float, x: float) -> float:
    """cdf of the concrete weight law at scale m_e: clamp((x/m_e)**(1/alpha), 0, 1)."""
    if x < 0.0:
        raise ValueError(f"weight argument must be nonnegative, got {x}")
    if not spec.m_min <= m_e <= 1.0:
        raise ValueError(f"scale must lie in [{spec.m_min}, 1], got {m_e}")
    if x == 0.0:
        return 0.0
    return min(1.0, (x / m_e) ** (1.0 / spec.alpha))


def envelope_check(spec: TreeWeightSpec, grid_points: int = 1000) -> bool:
    """Verify D1*x**(1/alpha) <= F_e(x) <= D2*x**(1/alpha) on a uniform grid.

    The check runs at both extreme scales m_e in {m_min, 1}; a relative slack
    of 1e-12 absorbs the rounding difference between (x/m)**(1/alpha) and
    x**(1/alpha) * m**(-1/alpha).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    inv_alpha = 1.0 / spec.alpha
    d1, d2 = envelope_d1(spec), envelope_d2(spec)
    slack = 1e-12
    for idx in range(grid_points):
        x = idx / (grid_points - 1)
        ref = x**inv_alpha
        for m_e in (spec.m_min, 1.0):
            f = cdf_tree_weight(spec, m_e, x)
            if f < d1 * ref * (1.0 - slack) - slack:
                return False
            if f > d2 * ref * (1.0 + slack) + slack:
                return False
    return True


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


# -- lattice passage times ------------------------------------------------------


def passage_time_from_uniform(spec: PassageTimeSpec, theta: float, u: float) -> float:
    """Inverse-transform map for one edge with per-edge parameter theta.

    Test hook: forcing u exercises the distribution boundaries directly.
    Routed through the vectorized transform on a 1-element array, keeping
    scalar and grid sampling bit-identical (numpy's scalar and array
    transcendentals can differ in the last ulp).
    """
    return float(inverse_transform_times(spec, theta, np.array([u], dtype=np.float64))[0])


def edge_parameter(spec: PassageTimeSpec, axis: int, base: tuple) -> float:
    """Per-edge parameter, a fixed function of the edge key (axis, base vertex)."""
    lo, hi = spec.param_range
    if lo == hi:
        return lo
    words = (rng.STREAM_LATTICE_PARAM, axis) + tuple(base)
    return lo + (hi - lo) * uniform(*words)


def passage_time(spec: PassageTimeSpec, ctx: SeedContext, axis: int, base: tuple) -> float:
    """Passage time of the lattice edge from ``base`` to ``base + e_axis``.

    ``base`` must be the lexicographically smaller endpoint, i.e. the edge
    runs in the +axis direction.
    """
    if not 0 <= axis < len(base):
        raise ValueError(f"axis {axis} out of range for dimension {len(base)}")
    words = (rng.STREAM_LATTICE_TIME, ctx.master_seed, ctx.trial_index, axis) + tuple(base)
    u = uniform(*words)
    return passage_time_from_uniform(spec, edge_parameter(spec, axis, base), u)


def moment_order(spec: PassageTimeSpec) -> float:
    """Supremum of p with sup-over-edges E t**p finite."""
    if spec.kind == "pareto":
        return spec.params[1]
    return math.inf


def mu2(spec: PassageTimeSpec) -> float:
    """sup over admissible per-edge parameters of E t**2."""
    lo, hi = spec.param_range
    if spec.kind == "exponential":
        (rate,) = spec.params
        return 2.0 / (rate * lo) ** 2
    if spec.kind == "uniform":
        a, b = spec.params
        return hi**2 * (a * a + a * b + b * b) / 3.0
    x_m, shape = spec.params
    return (hi * x_m) ** 2 * shape / (shape - 2.0)


def enumerate_paths(lat: LatticeSpec, n: int, k: int):
    """Exhaustive minimum over self-avoiding paths of at most k edges on Z^2,
    one search for one budget; None when no such path exists.

    Every vertex v of such a path satisfies |v|_1 + |v - t|_1 <= k for the
    target t = (n, 0), so the search stays in that set's bounding box,
    x in [-m, n + m] and y in [-m, m] with m = floor((k - n) / 2). Costs
    accumulate in path order.
    """
    if n == 0:
        return 0.0
    if k < n:
        return None

    target = (n, 0)
    m = (k - n) // 2
    # time of every edge inside the box, keyed by (base vertex, axis)
    edge_time = {}
    for axis in (0, 1):
        xs = np.arange(-m, n + m + axis, dtype=np.int64)
        ys = np.arange(-m, m + 1 - axis, dtype=np.int64)
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
            if not (-m <= npos[0] <= n + m and abs(npos[1]) <= m) or npos in visited:
                continue
            base = min(pos, npos)
            visited.add(npos)
            rec(npos, cost + edge_time[base, axis], hops_left - 1, visited)
            visited.remove(npos)

    rec((0, 0), 0.0, k, {(0, 0)})
    return None if math.isinf(best) else best


# -- tail bounds ----------------------------------------------------------------


def bernoulli_upper_bound(m: int, mu2: float, epsilon: float) -> float:
    """Reference tail bound exp(-epsilon**2 * m * mu2 / 4).

    Bounds the probability that a sum of m independent Bernoulli variables
    with success probability at most mu2 exceeds m * mu2 * (1 + epsilon).
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not 0.0 < mu2 <= 1.0:
        raise ValueError(f"mu2 must lie in (0, 1], got {mu2}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    return math.exp(-(epsilon**2) * m * mu2 / 4.0)


# -- drivers --------------------------------------------------------------------


def random_prefix(master: int, gtrial: int, n_vertices: int, j: int) -> tuple:
    """Partial Fisher-Yates with one scalar hash per swap."""
    verts = list(range(1, n_vertices + 1))
    for i in range(j):
        h = hash_words(rng.STREAM_PREFIX, master, gtrial, i)
        r = i + h % (n_vertices - i)
        verts[i], verts[r] = verts[r], verts[i]
    return tuple(verts[:j])


def yj_from_matrix(W, prefix) -> float:
    """Least weight from the last prefix vertex to a vertex outside the prefix."""
    return min(W[prefix[-1] - 1][a - 1] for a in range(1, len(W) + 1) if a not in prefix)


def yj_trial(ctx: SeedContext, spec: TreeWeightSpec, n_vertices: int, j: int) -> float:
    """Y_j of one trial: the row rule on the trial's full weight matrix, at its random_prefix."""
    W = CompleteInstance(n_vertices, spec, ctx).matrix()
    return float(yj_from_matrix(W, random_prefix(ctx.master_seed, ctx.trial_index, n_vertices, j)))
