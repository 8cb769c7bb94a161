"""Random weight models for the complete graph and the integer lattice.

Two families are provided:

* tree weights w(i, j) = m_e * u**alpha on [0, 1], whose cdf
  F_e(x) = (x / m_e)**(1/alpha) sits between x**(1/alpha) and
  m_min**(-1/alpha) * x**(1/alpha) for every per-edge scale
  m_e in [m_min, 1];
* lattice passage times drawn by inverse transform from one of three kinds
  (exponential, uniform, pareto), with an optional per-edge parameter chosen
  deterministically from a closed interval by the edge key alone, so the
  per-edge distributions are fixed once and for all and do not change with
  the master seed or the trial index.

All sampling is keyed through :mod:`minweight.rng`; see there for the
determinism contract. Each family has one array kernel, weights_from_vertex
for tree weights (weight_matrix is its all-pairs call) and passage_time_grid
for passage times. Both take a SeedContext, count consecutive trials under
one master seed, and hash ctx.master_seed and ctx.trials, the (count, 1)
column of trial indices. weights_from_vertex lines the column up with the
first axis of its vertices, so a context of one keeps their broadcast
shape; weight_matrix passes vertices with a leading axis of 1 and gets
one (n, n) matrix per trial. passage_time_grid puts the column ahead of
its coordinates' broadcast shape, (count,) + (1,) * ndim, so its grids
get a leading trial axis that the lattice routines keep.
SeedContext.blocks is the one rule that cuts trials into blocks of at most
BLOCK_ELEMENTS array elements, require_array is the one byte budget of
both families, and sum_in_order is the one left-to-right sum of their
totals. The scalar per-edge versions that the tests use as oracles,
and the analytic law helpers (cdf, envelope constants, moments), are in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from .errors import CapacityError, ConfigurationError

# Byte budget of one float64 array, checked before allocating (require_array):
# a tree weight matrix, one trial's uint64 yj row or a subset stack;
# Dijkstra's arcs or distances, a DP label grid, path-oracle costs or edge
# times, a straight path's n times.
ARRAY_BYTES = 2**29


def require_array(what: str, elements: int) -> None:
    """Raise CapacityError when what, a float64 array of elements entries, exceeds ARRAY_BYTES."""
    size = 8 * elements
    if size > ARRAY_BYTES:
        raise CapacityError(f"{what} takes {size} bytes, budget is {ARRAY_BYTES}")


def sum_in_order(columns) -> np.ndarray:
    """Elementwise sum of columns, equal-shape arrays added one at a time, left to right.

    Over a.T it sums a 2-D array a along its last axis, each row left to
    right. np.sum adds pairwise, which can change the last bit of a sum,
    and np.cumsum along a short last axis is several times slower. A 1-D
    array's entries are the columns: its last running sum is their sum,
    without one numpy scalar add per entry.
    """
    if isinstance(columns, np.ndarray) and columns.ndim == 1:
        return np.add.accumulate(columns)[-1]
    return reduce(np.add, columns)


# Most array elements (trials x elements per trial) one trial block holds;
# 8 * BLOCK_ELEMENTS <= ARRAY_BYTES, so checking one trial checks a block.
BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class SeedContext:
    """Root of all randomness for count consecutive Monte Carlo trials under
    one master seed, the first at trial_index.

    Row t of a kernel's arrays belongs to trial trial_index + t; a context
    of one is one trial.
    """

    master_seed: int
    trial_index: int = 0
    count: int = 1

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be nonnegative, got {self.trial_index}")
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")

    @property
    def trials(self) -> np.ndarray:
        """The trial indices as a uint64 column, one row per trial."""
        first = self.trial_index
        return np.arange(first, first + self.count, dtype=np.uint64)[:, None]

    def blocks(self, size: int) -> list:
        """These trials cut into consecutive contexts of at most max(size, 1) trials, in order."""
        size = max(1, size)
        first = self.trial_index
        return [
            SeedContext(self.master_seed, first + t, min(size, self.count - t))
            for t in range(0, self.count, size)
        ]


@dataclass(frozen=True)
class TreeWeightSpec:
    """Heavy-weight family for complete-graph edges.

    alpha is the tail exponent in (0, 1); m_min in (0, 1] is the floor of the
    per-edge scale. With ``heterogeneous=False`` every edge uses scale 1 and
    the weights are i.i.d.; otherwise each edge's scale is a fixed function
    of the edge key, landing in [m_min, 1]. The induced envelope constants
    are D1 = 1 and D2 = m_min**(-1/alpha).
    """

    alpha: float
    m_min: float = 1.0
    heterogeneous: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.m_min <= 1.0:
            raise ConfigurationError(f"m_min must lie in (0, 1], got {self.m_min}")


_KINDS = ("exponential", "uniform", "pareto")


@dataclass(frozen=True)
class PassageTimeSpec:
    """Strictly positive passage-time distribution for lattice edges.

    kind selects the family; params are (rate,) for exponential, (a, b) for
    uniform with 0 < a < b, (x_m, shape) for pareto. param_range is a closed
    interval of per-edge multipliers: of the rate for exponential edges, of
    the scale for uniform and pareto edges. Leaving it degenerate
    (lo == hi) makes the edges i.i.d.
    """

    kind: str
    params: tuple
    param_range: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown passage time kind {self.kind!r}")
        lo, hi = self.param_range
        if not (0.0 < lo <= hi):
            raise ConfigurationError(f"param_range must satisfy 0 < lo <= hi, got {self.param_range}")
        if self.kind == "exponential":
            (rate,) = self.params
            if rate <= 0.0:
                raise ConfigurationError(f"exponential rate must be positive, got {rate}")
        elif self.kind == "uniform":
            a, b = self.params
            if not 0.0 < a < b:
                raise ConfigurationError(f"uniform support must satisfy 0 < a < b, got {self.params}")
        else:
            x_m, shape = self.params
            if x_m <= 0.0:
                raise ConfigurationError(f"pareto scale must be positive, got {x_m}")
            if shape <= 2.0:
                # second moments must stay uniformly bounded
                raise ConfigurationError(f"pareto shape must exceed 2, got {shape}")


# -- tree weights --------------------------------------------------------------


def weight_matrix(spec: TreeWeightSpec, ctx: SeedContext, n: int) -> np.ndarray:
    """Dense weight matrices of shape (count, n, n), one per trial of ctx.

    Entry [t, v, w] is trial t's weight of the edge between vertices v+1
    and w+1; each matrix is symmetric with +inf on its diagonal.
    Bit-identical to looping the scalar reference edge_weight of
    ``tests/reference.py`` over all pairs. The matrices are checked against
    the array budget before any weight is hashed.
    """
    require_array(f"the {n} x {n} weight matrices over {ctx.count} trials", ctx.count * n * n)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    w = weights_from_vertex(spec, ctx, idx[None, :, None], idx[None, None, :])
    w[:, idx - 1, idx - 1] = np.inf
    return w


def weights_from_vertex(
    spec: TreeWeightSpec, ctx: SeedContext, i: int | np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Weights of edges from vertex i to each target vertex (1-based).

    i may be an array that broadcasts against targets. The first axis of
    their broadcast is the trial axis: row t holds weights of trial t of
    ctx, and under a context of one every row is its one trial. Besides
    the keys, kept in the vertices' integer type, a call holds two arrays of
    the result's shape: the hash state and the uniforms, which the power
    and the scale overwrite in place; three with heterogeneous scales.
    """
    lo = np.minimum(i, targets)
    hi = np.maximum(i, targets)
    trials = ctx.trials.reshape((-1,) + (1,) * (lo.ndim - 1))
    w = rng.uniform_vec(rng.STREAM_TREE_WEIGHT, ctx.master_seed, trials, lo, hi)
    # **= takes the shortcuts of ** (sqrt at alpha 0.5); np.power(out=) does not
    w **= spec.alpha
    if spec.heterogeneous:
        scale = rng.uniform_vec(rng.STREAM_TREE_SCALE, lo, hi)
        scale *= 1.0 - spec.m_min
        scale += spec.m_min
        w *= scale
    return w


# -- lattice passage times ------------------------------------------------------


def inverse_transform_times(spec: PassageTimeSpec, theta, u, out=None):
    """Vectorized inverse transform: uniforms u (and parameters theta) to times,
    written to out (u itself, say) or to a new array, by the same operations."""
    if spec.kind == "exponential":
        (rate,) = spec.params
        out = np.log1p(np.negative(u, out=out), out=out)
        np.negative(out, out=out)
        out /= rate * theta
    elif spec.kind == "uniform":
        a, b = spec.params
        out = np.multiply(u, b - a, out=out)
        out += a
        out *= theta
    else:
        x_m, shape = spec.params
        out = np.subtract(1.0, u, out=out)
        out **= -1.0 / shape
        out *= theta * x_m
    return out


def passage_time_grid(spec: PassageTimeSpec, ctx: SeedContext, axis: int, base_coords: tuple) -> np.ndarray:
    """Vectorized passage times for a grid of base vertices on one axis.

    base_coords is a tuple of d broadcastable integer arrays (one per
    coordinate); entry x is the time of the edge from x to x + e_axis.
    The trial column of ctx goes ahead of the coordinates' broadcast shape,
    as shape (count,) + (1,) * ndim, so the result has a leading trial axis
    and entry [t, ...] holds trial t's time. Only the hash state grows to
    the full shape; no coordinate is broadcast on its own, and the times
    overwrite the uniforms: two arrays of the result's shape, and per-edge
    parameters if any. Bit-identical to looping the scalar reference
    passage_time of ``tests/reference.py``.
    """
    coords = [np.asarray(c, dtype=np.int64) for c in base_coords]
    trials = ctx.trials.reshape((-1,) + (1,) * max(c.ndim for c in coords))
    u = rng.uniform_vec(rng.STREAM_LATTICE_TIME, ctx.master_seed, trials, axis, *coords)

    lo, hi = spec.param_range
    if lo == hi:
        theta = lo
    else:
        theta = rng.uniform_vec(rng.STREAM_LATTICE_PARAM, axis, *coords)
        theta *= hi - lo
        theta += lo

    return inverse_transform_times(spec, theta, u, out=u)
