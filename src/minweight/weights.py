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
determinism contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigurationError


@dataclass(frozen=True)
class SeedContext:
    """Root of all randomness for one Monte Carlo trial."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be nonnegative, got {self.trial_index}")


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
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.m_min <= 1.0:
            raise ValueError(f"m_min must lie in (0, 1], got {self.m_min}")

    @property
    def envelope_d1(self) -> float:
        return 1.0

    @property
    def envelope_d2(self) -> float:
        return self.m_min ** (-1.0 / self.alpha)


_KINDS = ("exponential", "uniform", "pareto")


@dataclass(frozen=True)
class PassageTimeSpec:
    """Strictly positive passage-time distribution for lattice edges.

    kind selects the family; params are (rate,) for exponential, (a, b) for
    uniform with 0 < a < b, (x_m, shape) for pareto. param_range is a closed
    interval of per-edge parameters: the rate for exponential edges, a scale
    multiplier for uniform and pareto edges. Leaving it degenerate
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

    @property
    def moment_order(self) -> float:
        """Supremum of p with sup-over-edges E t**p finite."""
        if self.kind == "pareto":
            return self.params[1]
        return math.inf

    def mean_bound(self) -> float:
        """sup over admissible per-edge parameters of E t."""
        lo, hi = self.param_range
        if self.kind == "exponential":
            return 1.0 / lo
        if self.kind == "uniform":
            a, b = self.params
            return hi * (a + b) / 2.0
        x_m, shape = self.params
        return hi * x_m * shape / (shape - 1.0)

    def mu2(self) -> float:
        """sup over admissible per-edge parameters of E t**2."""
        lo, hi = self.param_range
        if self.kind == "exponential":
            return 2.0 / lo**2
        if self.kind == "uniform":
            a, b = self.params
            return hi**2 * (a * a + a * b + b * b) / 3.0
        x_m, shape = self.params
        return (hi * x_m) ** 2 * shape / (shape - 2.0)


# -- tree weights --------------------------------------------------------------


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
    v = rng.uniform(rng.STREAM_TREE_SCALE, lo, hi)
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
    u = rng.uniform(rng.STREAM_TREE_WEIGHT, ctx.master_seed, ctx.trial_index, lo, hi)
    return tree_weight_from_uniform(spec, edge_scale(spec, lo, hi), u)


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
    d1, d2 = spec.envelope_d1, spec.envelope_d2
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


def weight_matrix(spec: TreeWeightSpec, ctx: SeedContext, n: int) -> np.ndarray:
    """Dense symmetric n x n weight matrix with +inf on the diagonal.

    Row/column index v corresponds to vertex v+1. Bit-identical to looping
    edge_weight over all pairs.
    """
    idx = np.arange(1, n + 1, dtype=np.uint64)
    w = weights_from_vertex(spec, ctx, idx[:, None], idx[None, :])
    np.fill_diagonal(w, np.inf)
    return w


def weights_from_vertex(spec: TreeWeightSpec, ctx: SeedContext, i: int | np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Weights of edges from vertex i to each target vertex (1-based).

    i may be an array that broadcasts against targets.
    """
    iv = np.asarray(i, dtype=np.uint64)
    t = np.asarray(targets, dtype=np.uint64)
    lo = np.minimum(iv, t)
    hi = np.maximum(iv, t)
    u = rng.unit_vec(rng.hash_words_vec(rng.STREAM_TREE_WEIGHT, ctx.master_seed, ctx.trial_index, lo, hi))
    if spec.heterogeneous:
        v = rng.unit_vec(rng.hash_words_vec(rng.STREAM_TREE_SCALE, lo, hi))
        scale = spec.m_min + (1.0 - spec.m_min) * v
    else:
        scale = 1.0
    return scale * u**spec.alpha


# -- lattice passage times ------------------------------------------------------


def inverse_transform_times(spec: PassageTimeSpec, theta, u):
    """Vectorized inverse transform: uniforms u (and parameters theta) to times."""
    if spec.kind == "exponential":
        return -np.log1p(-u) / theta
    if spec.kind == "uniform":
        a, b = spec.params
        return theta * (a + (b - a) * u)
    x_m, shape = spec.params
    return theta * x_m * (1.0 - u) ** (-1.0 / shape)


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
    return lo + (hi - lo) * rng.uniform(*words)


def passage_time(spec: PassageTimeSpec, ctx: SeedContext, axis: int, base: tuple) -> float:
    """Passage time of the lattice edge from ``base`` to ``base + e_axis``.

    ``base`` must be the lexicographically smaller endpoint, i.e. the edge
    runs in the +axis direction.
    """
    if not 0 <= axis < len(base):
        raise ValueError(f"axis {axis} out of range for dimension {len(base)}")
    words = (rng.STREAM_LATTICE_TIME, ctx.master_seed, ctx.trial_index, axis) + tuple(base)
    u = rng.uniform(*words)
    return passage_time_from_uniform(spec, edge_parameter(spec, axis, base), u)


def passage_time_grid(spec: PassageTimeSpec, ctx: SeedContext, axis: int, base_coords: tuple) -> np.ndarray:
    """Vectorized passage times for a grid of base vertices on one axis.

    base_coords is a tuple of d broadcastable integer arrays (one per
    coordinate). Bit-identical to looping passage_time.
    """
    words = [rng.STREAM_LATTICE_TIME, ctx.master_seed, ctx.trial_index, axis]
    words += [rng.encode_signed(c) for c in base_coords]
    u = rng.unit_vec(rng.hash_words_vec(*words))

    lo, hi = spec.param_range
    if lo == hi:
        theta = lo
    else:
        pwords = [rng.STREAM_LATTICE_PARAM, axis] + [rng.encode_signed(c) for c in base_coords]
        theta = lo + (hi - lo) * rng.unit_vec(rng.hash_words_vec(*pwords))

    return inverse_transform_times(spec, theta, u)
