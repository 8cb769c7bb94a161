"""Aggregation primitives: summaries, power-law fits, binomial intervals.

Everything here is a pure function with a fixed evaluation order, so
aggregated results do not depend on scheduling or worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 97.5% standard normal quantile used for all 95% Wilson intervals.
WILSON_Z = 1.959964


@dataclass(frozen=True)
class SummaryStats:
    count: int
    mean: float
    unbiased_variance: float
    min: float
    max: float
    standard_error: float


@dataclass(frozen=True)
class PowerFit:
    slope: float
    intercept: float
    r_squared: float
    residual_max: float


@dataclass(frozen=True)
class ProbEstimate:
    successes: int
    trials: int
    point: float
    wilson_low: float
    wilson_high: float


def summarize(samples) -> SummaryStats:
    """Two-pass summary with the unbiased variance divisor (count - 1).

    A single sample reports variance 0.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("summarize needs a nonempty 1-d sample list")
    n = int(x.size)
    mean = float(x.sum() / n)
    if n == 1:
        var = 0.0
    else:
        centered = x - mean
        var = float((centered * centered).sum() / (n - 1))
    return SummaryStats(
        count=n,
        mean=mean,
        unbiased_variance=var,
        min=float(x.min()),
        max=float(x.max()),
        standard_error=math.sqrt(var / n),
    )


def loglog_fit(points) -> PowerFit:
    """Ordinary least squares on (ln x, ln y) for strictly positive points."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("loglog_fit needs at least 2 points")
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("loglog_fit needs strictly positive coordinates")
    if len(set(xs.tolist())) != len(pts):
        raise ValueError("loglog_fit needs distinct x values")
    lx, ly = np.log(xs), np.log(ys)
    mx, my = lx.mean(), ly.mean()
    sxx = float(((lx - mx) ** 2).sum())
    sxy = float(((lx - mx) * (ly - my)).sum())
    slope = sxy / sxx
    intercept = float(my - slope * mx)
    resid = ly - (intercept + slope * lx)
    ss_res = float((resid**2).sum())
    ss_tot = float(((ly - my) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return PowerFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        residual_max=float(np.abs(resid).max()),
    )


def chi2_quantile(q: float, df: int) -> float:
    """Quantile q of the chi-square law with df degrees of freedom.

    The formula scipy.stats.chi2.ppf evaluates, bit for bit, without the
    import cost of scipy.stats. scipy.special is imported on the first call,
    because only tree-variance needs it.
    """
    from scipy.special import gammaincinv

    return float(2 * gammaincinv(df / 2, q))


def wilson_interval(successes: int, trials: int) -> ProbEstimate:
    """95% Wilson score interval, stable near probability 0."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in 0..{trials}, got {successes}")
    z = WILSON_Z
    p = successes / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    return ProbEstimate(
        successes=successes,
        trials=trials,
        point=p,
        wilson_low=max(0.0, center - margin),
        wilson_high=min(1.0, center + margin),
    )
