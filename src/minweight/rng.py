"""Counter-based keyed randomness.

Every random quantity in this package is a pure function of a word tuple
(stream tag, master seed, trial index, key words). The words are absorbed
one at a time into a 64-bit state through the splitmix64 finalizer, and the
final state is mapped to a uniform variate in [0, 1) using the top 53 bits.
There is no sequential generator state, so edge weights can be evaluated in
any order and in parallel, and the trial index is just one more word that
broadcasts like the others.

The mixer is implemented once, over uint64 arrays; the package draws no
random word any other way. ``tests/reference.py`` keeps a scalar loop
version (``hash_words``, ``uniform``) that the tests require these kernels to
match bit for bit.

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

# 1 / 2**53, the spacing of the uniform grid produced by unit_vec().
_U53 = 2.0 ** -53

_V_M1 = np.uint64(_M1)
_V_M2 = np.uint64(_M2)
_V_30 = np.uint64(30)
_V_27 = np.uint64(27)
_V_31 = np.uint64(31)
_V_11 = np.uint64(11)


def mix64_vec(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping multiplication)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _V_30)) * _V_M1
        z = (z ^ (z >> _V_27)) * _V_M2
    return z ^ (z >> _V_31)


def hash_words_vec(*words) -> np.ndarray:
    """Absorb word tuples into 64-bit digests; ints and uint64 arrays broadcast.

    Negative int words are reduced modulo 2**64 (two's complement); signed
    array words go through encode_signed first.
    """
    h = np.uint64(_INIT)
    for w in words:
        if isinstance(w, np.ndarray):
            w = w.astype(np.uint64, copy=False)
        else:
            w = np.uint64(w & _MASK)
        h = mix64_vec(np.bitwise_xor(h, w))
    return h


def unit_vec(h: np.ndarray) -> np.ndarray:
    """Map digests to the uniform grid {0, 1, ..., 2**53 - 1} / 2**53 in [0, 1)."""
    return (h >> _V_11).astype(np.float64) * _U53


def encode_signed(c) -> np.ndarray:
    """Two's-complement encoding of signed integers (arrays) as uint64 words."""
    return np.asarray(c, dtype=np.int64).astype(np.uint64)
