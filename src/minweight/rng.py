"""Counter-based keyed randomness.

Every random quantity in this package is a pure function of a word tuple
(stream tag, master seed, trial index, key words). The words are absorbed
one at a time into a 64-bit state through the splitmix64 finalizer, and the
final state is mapped to a uniform variate in [0, 1) using the top 53 bits.
There is no sequential generator state, so edge weights can be evaluated in
any order and in parallel, and the trial index is just one more word that
broadcasts like the others.

The mixer is implemented once, in mix64_vec. hash_words_vec writes to no
word: its state is a new value until it takes the words' broadcast shape,
then is mixed in place with one scratch array of that shape, which
uniform_vec lends from its result. ``tests/reference.py`` keeps the scalar
loops and the un-fused ``unit_vec`` that these must match bit for bit.

The mixer identifier below is embedded in every report; frozen golden values
in the test suite are only valid for this exact construction.
"""

from __future__ import annotations

import numpy as np

MIXER_ID = "splitmix64-absorb/v1"

_MASK = (1 << 64) - 1
_INIT = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Stream tags (domain separation between unrelated uses of the mixer).
STREAM_TREE_WEIGHT = 1
STREAM_TREE_SCALE = 2
STREAM_LATTICE_TIME = 3
STREAM_LATTICE_PARAM = 4
STREAM_PREFIX = 5

# 1 / 2**53, the spacing of the uniform grid produced by uniform_vec().
_U53 = 2.0 ** -53

_V_11 = np.uint64(11)
# the finalizer's rounds: z ^= z >> shift, then z *= factor (none in the last)
_ROUNDS = ((np.uint64(30), np.uint64(_M1)), (np.uint64(27), np.uint64(_M2)), (np.uint64(31), None))


def mix64_vec(z, tmp=None):
    """splitmix64 finalizer of uint64 z, in place (numpy scalars rebind); the
    shifts go to tmp, an array of z's shape, or to new values without it."""
    for shift, factor in _ROUNDS:
        z ^= z >> shift if tmp is None else np.right_shift(z, shift, out=tmp)
        if factor is not None:
            z *= factor
    return z


def _broadcast(words) -> np.broadcast:
    return np.broadcast(*[w for w in words if isinstance(w, np.ndarray)])


def hash_words_vec(*words, scratch=None) -> np.ndarray:
    """Absorb word tuples into 64-bit digests; ints and integer arrays broadcast.

    Negative words, ints or signed array entries, are reduced modulo 2**64
    (two's complement); int words alone give a numpy scalar. scratch, a
    uint64 array of the words' broadcast shape, is overwritten as the
    mixer's scratch array instead of a new one.
    """
    full = _broadcast(words) if scratch is None else scratch
    h = np.uint64(_INIT)
    tmp = None
    # numpy scalars warn when their multiplication wraps
    with np.errstate(over="ignore"):
        for w in words:
            if not isinstance(w, np.ndarray):
                w = np.uint64(w & _MASK)
            elif w.size == 1:
                w = np.uint64(w.item() & _MASK)
            else:
                if w.dtype.kind != "u":
                    w = w.astype(np.int64, copy=False).view(np.uint64)
                if tmp is None and np.broadcast(h, w).size == full.size:
                    # the state reaches the full shape: copied into it once
                    tmp = np.empty(full.shape, np.uint64) if scratch is None else scratch
                    h = np.full(full.shape, h)
            if tmp is None:
                h = h ^ w  # a new value, so the state never aliases a word
            else:
                h ^= w
            h = mix64_vec(h, tmp)
    # one-element array words alone: the digest takes their axes
    return np.full(full.shape, h) if full.shape and tmp is None else h


def uniform_vec(*words) -> np.ndarray:
    """Uniforms on the grid {0, 1, ..., 2**53 - 1} / 2**53 in [0, 1) from the
    top 53 bits of hash_words_vec(*words), cast into the hash's scratch."""
    u = np.empty(_broadcast(words).shape)
    h = hash_words_vec(*words, scratch=u.view(np.uint64))
    h >>= _V_11
    np.copyto(u, h, casting="unsafe")
    u *= _U53
    return u
