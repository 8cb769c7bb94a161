import math

import numpy as np
import pytest

from minweight.stats import (
    PowerFit,
    chi2_quantile,
    loglog_fit,
    summarize,
    wilson_interval,
)
from reference import bernoulli_upper_bound


def test_summarize_basics():
    s = summarize([1.0, 1.0, 1.0])
    assert s.mean == 1.0 and s.unbiased_variance == 0.0
    s = summarize([0.0, 2.0])
    assert s.mean == 1.0 and s.unbiased_variance == 2.0
    assert s.min == 0.0 and s.max == 2.0
    assert s.standard_error == 1.0
    s1 = summarize([3.5])
    assert s1.unbiased_variance == 0.0 and s1.count == 1
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_against_compensated_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100_000) * 0.37 + 2.0
    s = summarize(x)
    mean_ref = math.fsum(x) / x.size
    var_ref = math.fsum((v - mean_ref) ** 2 for v in x) / (x.size - 1)
    assert abs(s.mean - mean_ref) <= 1e-10 * abs(mean_ref)
    assert abs(s.unbiased_variance - var_ref) <= 1e-10 * var_ref


def test_summarize_permutation_and_translation():
    rng = np.random.default_rng(8)
    x = rng.random(5000)
    a = summarize(x)
    b = summarize(x[::-1].copy())
    assert abs(a.mean - b.mean) <= 1e-10 * abs(a.mean)
    assert abs(a.unbiased_variance - b.unbiased_variance) <= 1e-10 * a.unbiased_variance
    c = summarize(x + 10.0)
    assert abs(c.mean - (a.mean + 10.0)) <= 1e-10 * abs(c.mean)
    assert abs(c.unbiased_variance - a.unbiased_variance) <= 1e-9 * a.unbiased_variance


def test_loglog_fit_exact_cases():
    fit = loglog_fit([(x, x) for x in (1.0, 2.0, 4.0, 8.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == 1.0
    assert fit.residual_max <= 1e-9
    fit = loglog_fit([(x, 5.0 * math.sqrt(x)) for x in (1.0, 3.0, 9.0, 27.0)])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)


def test_loglog_fit_with_noise():
    gen = np.random.default_rng(1)
    xs = np.linspace(1.0, 20.0, 20)
    ys = xs**0.7 * np.exp(gen.normal(0.0, 0.01, size=20))
    fit = loglog_fit(list(zip(xs, ys)))
    assert abs(fit.slope - 0.7) < 0.02


def test_loglog_fit_scale_covariance():
    pts = [(1.0, 2.0), (2.0, 3.0), (5.0, 11.0), (9.0, 20.0)]
    base = loglog_fit(pts)
    scaled = loglog_fit([(x, 7.0 * y) for x, y in pts])
    assert abs(scaled.slope - base.slope) <= 1e-12
    assert scaled.intercept == pytest.approx(base.intercept + math.log(7.0), abs=1e-10)


def test_loglog_fit_domain_errors():
    with pytest.raises(ValueError):
        loglog_fit([(1.0, 1.0)])
    with pytest.raises(ValueError):
        loglog_fit([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError):
        loglog_fit([(1.0, 1.0), (1.0, 2.0)])


def test_loglog_fit_constant_y():
    fit = loglog_fit([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
    assert isinstance(fit, PowerFit)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # zero residuals against its own mean


def test_wilson_interval():
    est = wilson_interval(0, 50)
    assert est.wilson_low == 0.0 and est.point == 0.0
    est = wilson_interval(50, 100)
    assert est.wilson_low == pytest.approx(0.4038, abs=2e-4)
    assert est.wilson_high == pytest.approx(0.5962, abs=2e-4)
    assert est.wilson_low <= est.point <= est.wilson_high
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_coverage():
    # interval should contain the true p in >= 93% of simulated binomials
    gen = np.random.default_rng(12345)
    p, trials, reps = 0.1, 200, 10_000
    hits = 0
    counts = gen.binomial(trials, p, size=reps)
    for c in counts:
        est = wilson_interval(int(c), trials)
        if est.wilson_low <= p <= est.wilson_high:
            hits += 1
    assert hits / reps >= 0.93


def test_bernoulli_bound_values():
    assert bernoulli_upper_bound(0, 0.5, 0.25) == 1.0
    assert bernoulli_upper_bound(256, 0.1, 0.25) == pytest.approx(math.exp(-0.4), rel=1e-12)
    assert bernoulli_upper_bound(100, 0.2, 1e-9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        bernoulli_upper_bound(10, 0.0, 0.25)
    with pytest.raises(ValueError):
        bernoulli_upper_bound(10, 0.5, 0.5)
    with pytest.raises(ValueError):
        bernoulli_upper_bound(-1, 0.5, 0.25)


def test_bernoulli_bound_dominates_empirical_tail():
    m, mu2, eps, reps = 512, 0.05, 0.25, 100_000
    gen = np.random.default_rng(2718)
    sums = gen.binomial(m, mu2, size=reps)
    overflow = np.count_nonzero(sums > m * mu2 * (1 + eps)) / reps
    bound = bernoulli_upper_bound(m, mu2, eps)
    se = math.sqrt(max(overflow * (1 - overflow), 1e-12) / reps)
    assert overflow <= bound + 3 * se


def test_chi2_quantile_equals_scipy_stats():
    from scipy.stats import chi2

    for df in [*range(1, 3001), 10**5, 10**6]:
        for q in (0.05, 0.5, 0.95):
            assert chi2_quantile(q, df) == float(chi2.ppf(q, df)), (q, df)
