"""Scalar reference implementations of the package's sampling kernels.

The package draws all randomness through array kernels
(``rng.hash_words_vec``, ``weights.weights_from_vertex`` /
``weights.weight_matrix`` and ``weights.passage_time_grid``). The loop
versions below compute the same quantities one word tuple at a time, in
plain Python integers; the tests require the kernels to agree with them bit
for bit.
"""

from __future__ import annotations

import numpy as np

from minweight import rng
from minweight.rng import _INIT, _M1, _M2, _MASK, _U53
from minweight.weights import PassageTimeSpec, SeedContext, TreeWeightSpec, inverse_transform_times

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


# -- drivers --------------------------------------------------------------------


def random_prefix(master: int, gtrial: int, n_vertices: int, j: int) -> tuple:
    """Partial Fisher-Yates with one scalar hash per swap."""
    verts = list(range(1, n_vertices + 1))
    for i in range(j):
        h = hash_words(rng.STREAM_PREFIX, master, gtrial, i)
        r = i + h % (n_vertices - i)
        verts[i], verts[r] = verts[r], verts[i]
    return tuple(verts[:j])
