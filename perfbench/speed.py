"""Machine-speed calibration for the benchmark's end-to-end times.

The benchmark runs on small shared VMs whose CPU speed drifts by tens of
percent over stretches of seconds to minutes. Process CPU time drifts with
wall time, so nothing inside the program's own measurement removes it: raw
run medians of the same code spread by about a fifth between runs a few
minutes apart. A fixed calibration kernel that runs none of minweight's code
is timed again and again through the run, after every timed sample, for
about a tenth of the sample's time. The run's medians are rescaled to the
reference speed at which the kernel takes ``REFERENCE_S``:

    scaled = median of the wall times * REFERENCE_S / mean calibration time

A change to minweight moves the wall times but not the calibration, so it
shows in the scaled time in full; a machine that is slower for the whole
run slows both, and the ratio largely stays put (the kernel tracks the
workloads only in part; see README.md). The mean, not the median, of the
calibration times is used because a sample's wall time also sums its slow
and fast moments. The kernel mixes the kinds of work the four workloads do;
see ``calibrate``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Calibration time defining the reference speed: the kernel's typical time
# on the 2-vCPU Xeon VM the baseline in README.md was measured on, so scaled
# times read close to that machine's wall times.
REFERENCE_S = 0.030
# Calibration time spent after each sample, as a share of the sample's time.
SHARE = 0.1

_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(31)
# Arrays are preallocated, so the kernel's large arrays cause no allocation
# and no page faults whose cost would vary with the kernel's memory state.
# They are kept small (about 3.5 MiB in all): report processes are forked from
# the calibrating process and inherit these pages, which count towards their
# peak RSS.
_START = np.arange(1 << 17, dtype=np.uint64)
_WORDS = np.empty_like(_START)
_SHIFTED = np.empty_like(_START)
_TINY = np.arange(8, dtype=np.float64)


def _grid(side: int):
    """A side x side 4-neighbour grid graph with fixed exponential weights."""
    cell = np.arange(side * side).reshape(side, side)
    tails = np.concatenate([cell[:, :-1].ravel(), cell[:-1, :].ravel()])
    heads = np.concatenate([cell[:, 1:].ravel(), cell[1:, :].ravel()])
    weights = np.random.default_rng(1).exponential(size=tails.size)
    return csr_matrix((weights, (tails, heads)), shape=(side * side, side * side))


_GRID = _grid(120)


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now.

    Four parts for the kinds of work the workloads lean on: an interpreted
    loop (yj-prefix's scalar trials), a few thousand numpy calls on
    8-element arrays (oracle-selftest's one-element kernel calls), hashing
    and sorting a 1 MiB array (the vector hashing behind every weight), and
    a scipy Dijkstra on a grid (lattice-decay).
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(40_000):
        acc = (acc * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        table[i & 255] = acc
    tiny = _TINY
    for i in range(2_000):
        tiny = np.sqrt(np.abs(np.minimum(tiny, tiny[::-1]) + np.float64(i)))
    for _ in range(2):
        np.copyto(_WORDS, _START)
        for _ in range(3):
            np.right_shift(_WORDS, _SHIFT, out=_SHIFTED)
            np.multiply(_WORDS, _MIX, out=_WORDS)
            np.bitwise_xor(_WORDS, _SHIFTED, out=_WORDS)
        _WORDS.sort()
    dijkstra(_GRID, directed=False, indices=0)
    return time.perf_counter() - start


class SpeedProbe:
    """Calibration readings taken through one run."""

    def __init__(self) -> None:
        calibrate()  # warm-up: the first call faults the buffers in
        self.readings = []

    def after_sample(self, sample_s: float) -> None:
        """Calibrate for about SHARE of a sample that just took ``sample_s``."""
        for _ in range(max(1, round(SHARE * sample_s / REFERENCE_S))):
            self.readings.append(calibrate())

    def factor(self) -> float:
        """Multiplier from this run's wall times to reference-speed times."""
        return REFERENCE_S / statistics.fmean(self.readings)
