"""Configuration-driven Monte Carlo experiment drivers.

One driver per quantitative claim: tree-weight scaling and variance, the
nearest-unvisited-edge moment band, the lattice passage-time band, the
constraint-mismatch decay, the passage-time variance growth, and a
cross-validation oracle suite. Each driver returns an ExperimentReport whose
tables and verdicts are pure functions of the configuration: trial i of
sweep point p uses trial index p * trials + i under the master seed, and
aggregation always runs in trial order, so reports are identical no matter
how many workers computed them.

Verdict.criterion names the acceptance criterion (AC1..AC11) the verdict
implements.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.stats import chi2

from . import __version__, rng
from .errors import ConfigurationError, InfeasibleError
from .lattice import (
    LatticeSpec,
    enumerate_paths_oracle,
    hop_constrained_certified,
    hop_constrained_time,
    straight_path_time,
    unconstrained_time,
)
from .stats import loglog_fit, summarize, wilson_interval
from .trees import (
    CompleteInstance,
    exact_min_tree,
    greedy_spanning_path,
    kruskal_mst,
    min_tree_upper_bound,
    prufer_mst_weight,
    sample_yj,
    threshold_lower_bound,
)
from .weights import PassageTimeSpec, SeedContext, TreeWeightSpec

# Relative tolerance for deciding T_n(k) == T_n: values are sums of O(n)
# doubles, so exact bit equality would be brittle across reconstruction
# orders.
EQUALITY_RTOL = 1e-9

# Absolute slack for the per-trial sandwich chain, scaled by n (accumulation
# tolerance of the canonical edge sums).
SANDWICH_SLACK = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Not every field applies to every driver; each driver validates the
    fields it consumes and rejects configurations it cannot honour before
    doing any work.
    """

    experiment: str
    master_seed: int = 1
    trials: int = 100
    workers: int = 1
    # tree-weight family and sweeps
    alpha_values: tuple = (0.5,)
    n_values: tuple = ()
    m_min: float = 1.0
    heterogeneous: bool = False
    rho: float = 1.0
    gamma: float = 1.0
    # nearest-edge moments
    n: int = 0
    j_values: tuple = ()
    exp_moment_s: float = 2.0
    # lattice
    d: int = 2
    distribution: dict = field(default_factory=dict)
    k_multiple: int = 3
    k_values: tuple = ()
    box_radius_factor: float = 3.0
    hops_ratio_max: float = 3.0
    stabilization_tol: float = 0.10
    # oracle suite
    suite: tuple = ("spanning", "sandwich", "lattice", "prufer")
    suite_tree_instances: int = 100
    suite_prufer_instances: int = 50
    suite_lattice_instances: int = 200
    suite_gammas: tuple = (0.25, 0.5, 1.0, 2.0)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        clean = {}
        for key, value in raw.items():
            if key not in known:
                raise ConfigurationError(f"unknown config key {key!r}")
            if isinstance(value, list):
                value = tuple(value)
            clean[key] = value
        if "experiment" not in clean:
            raise ConfigurationError("config is missing the key 'experiment'")
        seed = clean.get("master_seed", cls.master_seed)
        if not _is_int(seed) or not 0 <= seed < 2**64:
            raise ConfigurationError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")
        for key in ("trials", "workers"):
            if not _is_int(clean.get(key, 1)):
                raise ConfigurationError(f"{key} must be an integer, got {clean[key]!r}")
        if clean.get("workers", 1) < 1:
            raise ConfigurationError(f"workers must be at least 1, got {clean['workers']!r}")
        if not isinstance(clean.get("heterogeneous", False), bool):
            raise ConfigurationError(f"heterogeneous must be true or false, got {clean['heterogeneous']!r}")
        return cls(**clean)

    def as_dict(self) -> dict:
        """Config echo for reports.

        The worker count steers execution only, never results, and reports
        must be byte-identical across worker counts, so it is not echoed.
        """
        out = {}
        for f in fields(self):
            if f.name == "workers":
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def tree_spec(self, alpha: float) -> TreeWeightSpec:
        return TreeWeightSpec(alpha=alpha, m_min=self.m_min, heterogeneous=self.heterogeneous)

    def passage_spec(self) -> PassageTimeSpec:
        return passage_spec_from_config(self.distribution)

    def tau_for(self, n: int) -> int:
        if not 0.0 < self.rho <= 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1], got {self.rho}")
        if self.rho == 1.0:
            return n - 1
        return min(n - 1, max(1, round(self.rho * n)))


def _is_int(value) -> bool:
    """True for a JSON integer; bool is an int subclass in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def passage_spec_from_config(dist: dict) -> PassageTimeSpec:
    if not dist:
        raise ConfigurationError("config key 'distribution' is missing or empty")
    kind = dist.get("kind")
    extra = set(dist) - {"kind", "rate", "a", "b", "x_m", "shape", "param_range"}
    if extra:
        raise ConfigurationError(f"unknown distribution key {sorted(extra)[0]!r}")
    param_range = tuple(dist.get("param_range", (1.0, 1.0)))
    if kind == "exponential":
        return PassageTimeSpec("exponential", (dist.get("rate", 1.0),), param_range)
    if kind == "uniform":
        if "a" not in dist or "b" not in dist:
            raise ConfigurationError("uniform distribution needs keys 'a' and 'b'")
        return PassageTimeSpec("uniform", (dist["a"], dist["b"]), param_range)
    if kind == "pareto":
        if "x_m" not in dist or "shape" not in dist:
            raise ConfigurationError("pareto distribution needs keys 'x_m' and 'shape'")
        return PassageTimeSpec("pareto", (dist["x_m"], dist["shape"]), param_range)
    raise ConfigurationError(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class Verdict:
    name: str
    criterion: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict
    tables: tuple
    verdicts: tuple
    runtime_seconds: float
    tool_version: str
    mixer_version: str

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


def _report(cfg: ExperimentConfig, tables, verdicts, started: float) -> ExperimentReport:
    return ExperimentReport(
        experiment=cfg.experiment,
        config=cfg.as_dict(),
        tables=tuple(tables),
        verdicts=tuple(verdicts),
        runtime_seconds=time.time() - started,
        tool_version=__version__,
        mixer_version=rng.MIXER_ID,
    )


# -- deterministic worker pool ---------------------------------------------


def _call(packed):
    fn, args = packed
    return fn(*args)


def _run_tasks(fn, tasks, workers: int):
    """Evaluate fn over tasks, preserving task order in the result list."""
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_call, [(fn, t) for t in tasks], chunksize=chunk))


# -- trial functions (module level so the process pool can pickle them) -----


def _tree_scaling_trial(alpha, m_min, het, master, gtrial, n_vertices, tau, gamma):
    spec = TreeWeightSpec(alpha=alpha, m_min=m_min, heterogeneous=het)
    inst = CompleteInstance(n_vertices, spec, SeedContext(master, gtrial))
    mst = kruskal_mst(inst).total_weight
    path = greedy_spanning_path(inst)
    upper = min_tree_upper_bound(inst, tau, path)
    lower = threshold_lower_bound(inst, tau, gamma)
    slack = SANDWICH_SLACK * n_vertices
    ok = (lower <= mst + slack) and (mst <= upper + slack)
    return mst, upper, lower, ok


def _tree_variance_trial(alpha, m_min, het, master, gtrial, n_vertices):
    spec = TreeWeightSpec(alpha=alpha, m_min=m_min, heterogeneous=het)
    inst = CompleteInstance(n_vertices, spec, SeedContext(master, gtrial))
    return kruskal_mst(inst).total_weight


def _random_prefix(master, gtrial, n_vertices, j):
    """Uniform ordered j-tuple of distinct vertices via partial Fisher-Yates."""
    i = np.arange(j, dtype=np.uint64)
    h = rng.hash_words_vec(rng.STREAM_PREFIX, master, gtrial, i)
    verts = list(range(1, n_vertices + 1))
    for a, r in enumerate((i + h % (np.uint64(n_vertices) - i)).tolist()):
        verts[a], verts[r] = verts[r], verts[a]
    return tuple(verts[:j])


def _yj_trial(alpha, m_min, het, master, gtrial, n_vertices, j):
    spec = TreeWeightSpec(alpha=alpha, m_min=m_min, heterogeneous=het)
    inst = CompleteInstance(n_vertices, spec, SeedContext(master, gtrial))
    prefix = _random_prefix(master, gtrial, n_vertices, j)
    return sample_yj(inst, prefix)


def _initial_radius(cfg_factor: float, n: int, k: int) -> int:
    return min(k, int(cfg_factor * n) + 8)


def _fpp_band_trial(pspec, d, master, gtrial, n, k, radius0):
    lat = LatticeSpec(d=d, spec=pspec, ctx=SeedContext(master, gtrial))
    res_k = hop_constrained_certified(lat, n, k, initial_radius=radius0, want_path=False)
    res_inf = unconstrained_time(lat, n, want_path=False)
    straight = straight_path_time(lat, n)
    ok = res_inf.value <= res_k.value <= straight
    return res_k.value, res_inf.value, straight, res_k.hop_count, ok


def _decay_trial(pspec, d, master, gtrial, n, k_values, factor):
    lat = LatticeSpec(d=d, spec=pspec, ctx=SeedContext(master, gtrial))
    res_inf = unconstrained_time(lat, n, want_path=False)
    flags = []
    for k in k_values:
        if k >= res_inf.hop_count:
            # the unconstrained witness is feasible, so T_n(k) = T_n exactly
            flags.append(False)
        else:
            res_k = hop_constrained_certified(
                lat, n, k, initial_radius=_initial_radius(factor, n, k), want_path=False
            )
            flags.append((res_k.value - res_inf.value) > EQUALITY_RTOL * res_inf.value)
    return tuple(flags)


def _fpp_variance_trial(pspec, d, master, gtrial, n, k, factor):
    lat = LatticeSpec(d=d, spec=pspec, ctx=SeedContext(master, gtrial))
    res_inf = unconstrained_time(lat, n, want_path=False)
    if res_inf.hop_count <= k:
        return res_inf.value
    res_k = hop_constrained_certified(
        lat, n, k, initial_radius=_initial_radius(factor, n, k), want_path=False
    )
    return res_k.value


# -- drivers -----------------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise ConfigurationError(message)


def _validate_tree_sweep(cfg: ExperimentConfig):
    _require(cfg.trials >= 1, "trials must be at least 1")
    _require(len(cfg.n_values) > 0, "n sweep must not be empty")
    _require(all(int(n) >= 2 for n in cfg.n_values), "tree sizes must be at least 2")
    _require(len(set(cfg.n_values)) == len(cfg.n_values), "n sweep must not repeat values")
    _require(len(cfg.alpha_values) > 0, "alpha sweep must not be empty")
    _require(all(0.0 < a < 1.0 for a in cfg.alpha_values), "alpha values must lie in (0, 1)")
    _require(cfg.rho == 1.0, "this driver runs the spanning rule; set rho = 1")


def run_tree_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Spanning-tree weight scaling: slope of mean weight vs n per alpha.

    The verdict demands slope within (1 - alpha) +/- 0.08. Also records the
    greedy upper bound and the counting lower bound per trial and checks the
    sandwich ordering on every trial.
    """
    started = time.time()
    _validate_tree_sweep(cfg)
    _require(len(cfg.n_values) >= 2, "fit needs at least two n values")
    summary_rows = []
    fit_rows = []
    verdicts = []
    total_violations = 0
    point = 0
    for alpha in cfg.alpha_values:
        means = []
        for n in cfg.n_values:
            n = int(n)
            tau = cfg.tau_for(n)
            base = point * cfg.trials
            point += 1
            tasks = [
                (alpha, cfg.m_min, cfg.heterogeneous, cfg.master_seed, base + t, n, tau, cfg.gamma)
                for t in range(cfg.trials)
            ]
            out = _run_tasks(_tree_scaling_trial, tasks, cfg.workers)
            values = [o[0] for o in out]
            uppers = [o[1] for o in out]
            lowers = [o[2] for o in out]
            oks = [o[3] for o in out]
            violations = sum(1 for ok in oks if not ok)
            total_violations += violations
            s = summarize(values)
            means.append((n, s.mean))
            summary_rows.append(
                (
                    alpha,
                    n,
                    tau,
                    cfg.trials,
                    s.mean,
                    s.unbiased_variance,
                    s.standard_error,
                    s.min,
                    s.max,
                    summarize(uppers).mean,
                    summarize(lowers).mean,
                    violations,
                )
            )
        if len(means) >= 2:
            fit = loglog_fit(means)
            target = 1.0 - alpha
            dev = abs(fit.slope - target)
            fit_rows.append((alpha, fit.slope, fit.intercept, fit.r_squared, target, dev))
            verdicts.append(
                Verdict(
                    name=f"slope_alpha_{alpha:g}",
                    criterion="AC4",
                    passed=dev <= 0.08,
                    measured=fit.slope,
                    threshold=0.08,
                    note=f"target {target:g}",
                )
            )
    verdicts.append(
        Verdict(
            name="sandwich_all_trials",
            criterion="AC4",
            passed=total_violations == 0,
            measured=float(total_violations),
            threshold=0.0,
            note="lower <= spanning weight <= greedy prefix on every trial",
        )
    )
    tables = [
        Table(
            "summary",
            (
                "alpha",
                "n",
                "tau",
                "trials",
                "mean_weight",
                "variance",
                "standard_error",
                "min",
                "max",
                "mean_upper_bound",
                "mean_lower_bound",
                "sandwich_violations",
            ),
            tuple(summary_rows),
        ),
        Table(
            "fits",
            ("alpha", "slope", "intercept", "r_squared", "target", "deviation"),
            tuple(fit_rows),
        ),
    ]
    return _report(cfg, tables, verdicts, started)


def run_tree_variance(cfg: ExperimentConfig) -> ExperimentReport:
    """Spanning-tree weight variance against the linear-in-n bound."""
    started = time.time()
    _validate_tree_sweep(cfg)
    _require(cfg.trials >= 100, "variance estimation needs at least 100 trials")
    _require(len(cfg.alpha_values) == 1, "tree-variance sweeps a single alpha")
    alpha = cfg.alpha_values[0]
    rows = []
    verdicts = []
    for point, n in enumerate(cfg.n_values):
        n = int(n)
        base = point * cfg.trials
        tasks = [
            (alpha, cfg.m_min, cfg.heterogeneous, cfg.master_seed, base + t, n)
            for t in range(cfg.trials)
        ]
        values = _run_tasks(_tree_variance_trial, tasks, cfg.workers)
        s = summarize(values)
        # upper 95% chi-square confidence bound under approximate normality
        df = cfg.trials - 1
        var_upper = df * s.unbiased_variance / float(chi2.ppf(0.05, df))
        rows.append((alpha, n, cfg.trials, s.mean, s.unbiased_variance, var_upper, var_upper / n))
        verdicts.append(
            Verdict(
                name=f"variance_n_{n}",
                criterion="AC5",
                passed=var_upper <= 2.5 * n,
                measured=var_upper,
                threshold=2.5 * n,
                note="upper 95% confidence bound on var",
            )
        )
    tables = [
        Table(
            "variance",
            ("alpha", "n", "trials", "mean", "variance", "var_upper95", "var_upper95_over_n"),
            tuple(rows),
        )
    ]
    return _report(cfg, tables, verdicts, started)


def run_yj_moments(cfg: ExperimentConfig) -> ExperimentReport:
    """Moment band for the nearest-unvisited-edge minima.

    For random prefixes of each length j, the scaled mean
    (n - j)**alpha * mean(Y_j) must stay within a factor-3 band across j,
    and the scaled log exponential moment (s = exp_moment_s) must stay at
    most 10 for every j at most n - 16.
    """
    started = time.time()
    _require(cfg.n >= 2, "set n to the (single) vertex count")
    _require(len(cfg.j_values) > 0, "j sweep must not be empty")
    _require(all(1 <= int(j) < cfg.n for j in cfg.j_values), "j values must lie in 1..n-1")
    _require(len(cfg.alpha_values) == 1, "yj-moments sweeps a single alpha")
    _require(cfg.trials >= 1, "trials must be at least 1")
    alpha = cfg.alpha_values[0]
    s_param = cfg.exp_moment_s
    rows = []
    scaled_means = []
    exp_checks = []
    for point, j in enumerate(cfg.j_values):
        j = int(j)
        base = point * cfg.trials
        tasks = [
            (alpha, cfg.m_min, cfg.heterogeneous, cfg.master_seed, base + t, cfg.n, j)
            for t in range(cfg.trials)
        ]
        ys = _run_tasks(_yj_trial, tasks, cfg.workers)
        s = summarize(ys)
        scale = (cfg.n - j) ** alpha
        scaled = scale * s.mean
        mean_exp = float(np.mean(np.exp(s_param * np.asarray(ys))))
        scaled_log = scale * float(np.log(mean_exp))
        scaled_means.append(scaled)
        if j <= cfg.n - 16:
            exp_checks.append((j, scaled_log))
        rows.append((alpha, cfg.n, j, cfg.trials, s.mean, scaled, scaled_log))
    ratio = max(scaled_means) / min(scaled_means)
    verdicts = [
        Verdict(
            name="scaled_mean_band",
            criterion="AC6",
            passed=ratio <= 3.0,
            measured=ratio,
            threshold=3.0,
            note="max/min of (n-j)^alpha * mean(Y_j)",
        )
    ]
    if exp_checks:
        worst_j, worst = max(exp_checks, key=lambda it: it[1])
        verdicts.append(
            Verdict(
                name="scaled_exp_moment",
                criterion="AC6",
                passed=worst <= 10.0,
                measured=worst,
                threshold=10.0,
                note=f"s={s_param:g}, worst at j={worst_j}",
            )
        )
    else:
        verdicts.append(
            Verdict(
                name="scaled_exp_moment",
                criterion="AC6",
                passed=True,
                measured=0.0,
                threshold=10.0,
                note="no j at most n-16 in the sweep; vacuous",
            )
        )
    tables = [
        Table(
            "moments",
            ("alpha", "n", "j", "trials", "mean_y", "scaled_mean", "scaled_log_exp_moment"),
            tuple(rows),
        )
    ]
    return _report(cfg, tables, verdicts, started)


def _validate_lattice(cfg: ExperimentConfig):
    _require(cfg.d >= 2, "lattice dimension must be at least 2")
    _require(cfg.trials >= 1, "trials must be at least 1")
    cfg.passage_spec()  # raises ConfigurationError on bad distributions


def run_fpp_band(cfg: ExperimentConfig) -> ExperimentReport:
    """Linear band for constrained and unconstrained passage times.

    Per trial the chain T_n <= T_n(k) <= straight-path time must hold
    outright; across the top half of the n sweep the mean T_n / n must
    stabilize within the configured tolerance; the mean hop ratio stays
    below hops_ratio_max.
    """
    started = time.time()
    _validate_lattice(cfg)
    _require(len(cfg.n_values) > 0, "n sweep must not be empty")
    _require(cfg.k_multiple >= 1, "k_multiple must be at least 1 so that k >= n")
    pspec = cfg.passage_spec()
    rows = []
    violations = 0
    tinf_means = []
    hop_ratios = []
    for point, n in enumerate(cfg.n_values):
        n = int(n)
        k = cfg.k_multiple * n
        radius0 = _initial_radius(cfg.box_radius_factor, n, k)
        base = point * cfg.trials
        tasks = [
            (pspec, cfg.d, cfg.master_seed, base + t, n, k, radius0) for t in range(cfg.trials)
        ]
        out = _run_tasks(_fpp_band_trial, tasks, cfg.workers)
        tk = summarize([o[0] / n for o in out])
        tinf = summarize([o[1] / n for o in out])
        straight = summarize([o[2] / n for o in out])
        hops = summarize([o[3] / n for o in out])
        bad = sum(1 for o in out if not o[4])
        violations += bad
        tinf_means.append((n, tinf.mean))
        hop_ratios.append(hops.mean)
        rows.append(
            (n, k, cfg.trials, tk.mean, tinf.mean, straight.mean, hops.mean, tk.standard_error, bad)
        )
    verdicts = [
        Verdict(
            name="ordering_chain",
            criterion="AC7",
            passed=violations == 0,
            measured=float(violations),
            threshold=0.0,
            note="T_n <= T_n(k) <= straight path, every trial",
        )
    ]
    top = tinf_means[len(tinf_means) // 2 :]
    if len(top) >= 2:
        lo = min(m for _, m in top)
        hi = max(m for _, m in top)
        spread = hi / lo - 1.0
        verdicts.append(
            Verdict(
                name="mean_stabilization",
                criterion="AC7",
                passed=spread <= cfg.stabilization_tol,
                measured=spread,
                threshold=cfg.stabilization_tol,
                note=f"relative spread of mean T_n/n over n >= {top[0][0]}",
            )
        )
    else:
        verdicts.append(
            Verdict(
                name="mean_stabilization",
                criterion="AC7",
                passed=True,
                measured=0.0,
                threshold=cfg.stabilization_tol,
                note="insufficient sweep: single n value, vacuous",
            )
        )
    worst_hops = max(hop_ratios)
    verdicts.append(
        Verdict(
            name="hop_ratio",
            criterion="AC7",
            passed=worst_hops <= cfg.hops_ratio_max,
            measured=worst_hops,
            threshold=cfg.hops_ratio_max,
            note="max over n of mean N_n(k)/n",
        )
    )
    tables = [
        Table(
            "band",
            (
                "n",
                "k",
                "trials",
                "mean_tk_over_n",
                "mean_tinf_over_n",
                "mean_straight_over_n",
                "mean_hops_over_n",
                "se_tk_over_n",
                "ordering_violations",
            ),
            tuple(rows),
        )
    ]
    return _report(cfg, tables, verdicts, started)


def run_constraint_decay(cfg: ExperimentConfig) -> ExperimentReport:
    """Decay of P(T_n(k) != T_n) along an increasing hop-budget schedule."""
    started = time.time()
    _validate_lattice(cfg)
    _require(cfg.n >= 1, "set n to the (single) target abscissa")
    _require(len(cfg.k_values) > 0, "k schedule must not be empty")
    ks = [int(k) for k in cfg.k_values]
    _require(all(b > a for a, b in zip(ks, ks[1:])), "k schedule must be strictly increasing")
    _require(ks[0] >= cfg.n, "k schedule must start at or above n")
    pspec = cfg.passage_spec()
    tasks = [
        (pspec, cfg.d, cfg.master_seed, t, cfg.n, tuple(ks), cfg.box_radius_factor)
        for t in range(cfg.trials)
    ]
    out = _run_tasks(_decay_trial, tasks, cfg.workers)
    rows = []
    estimates = []
    for idx, k in enumerate(ks):
        mism = sum(1 for flags in out if flags[idx])
        est = wilson_interval(mism, cfg.trials)
        estimates.append(est)
        rows.append((cfg.n, k, cfg.trials, mism, est.point, est.wilson_low, est.wilson_high, k * est.point))
    monotone_bad = 0
    for a, b in zip(estimates, estimates[1:]):
        if b.point > a.point and b.wilson_low > a.wilson_high:
            monotone_bad += 1
    monotone_ok = monotone_bad == 0
    first = ks[0] * estimates[0].point
    last = ks[-1] * estimates[-1].point
    if first == 0.0:
        envelope_ok = last == 0.0
        ratio = 0.0 if envelope_ok else float("inf")
    else:
        ratio = last / first
        envelope_ok = ratio <= 2.0
    verdicts = [
        Verdict(
            name="mismatch_monotone",
            criterion="AC8",
            passed=monotone_ok,
            measured=float(monotone_bad),
            threshold=0.0,
            note="adjacent increases outside Wilson overlap",
        ),
        Verdict(
            name="k_times_p_envelope",
            criterion="AC8",
            passed=envelope_ok,
            measured=ratio,
            threshold=2.0,
            note="growth of k * estimate from smallest to largest k",
        ),
    ]
    tables = [
        Table(
            "decay",
            ("n", "k", "trials", "mismatches", "point", "wilson_low", "wilson_high", "k_times_point"),
            tuple(rows),
        )
    ]
    return _report(cfg, tables, verdicts, started)


def run_fpp_variance(cfg: ExperimentConfig) -> ExperimentReport:
    """Growth of var(T_n(k)) with n for one passage-time distribution."""
    started = time.time()
    _validate_lattice(cfg)
    _require(len(cfg.n_values) >= 2, "variance fit needs at least two n values")
    _require(cfg.trials >= 2, "variance needs at least 2 trials")
    _require(cfg.k_multiple >= 1, "k_multiple must be at least 1 so that k >= n")
    pspec = cfg.passage_spec()
    rows = []
    points = []
    for point, n in enumerate(cfg.n_values):
        n = int(n)
        k = cfg.k_multiple * n
        base = point * cfg.trials
        tasks = [
            (pspec, cfg.d, cfg.master_seed, base + t, n, k, cfg.box_radius_factor)
            for t in range(cfg.trials)
        ]
        values = _run_tasks(_fpp_variance_trial, tasks, cfg.workers)
        s = summarize(values)
        rows.append((pspec.kind, n, k, cfg.trials, s.mean, s.unbiased_variance))
        points.append((n, s.unbiased_variance))
    degenerate = any(v <= 0.0 for _, v in points)
    if degenerate:
        verdicts = [
            Verdict(
                name="variance_slope",
                criterion="AC9",
                passed=True,
                measured=0.0,
                threshold=1.3,
                note="degenerate: nonpositive variance, no fit",
            )
        ]
        fit_rows = ()
    else:
        fit = loglog_fit(points)
        verdicts = [
            Verdict(
                name="variance_slope",
                criterion="AC9",
                passed=fit.slope <= 1.3,
                measured=fit.slope,
                threshold=1.3,
                note=f"kind {pspec.kind}",
            )
        ]
        fit_rows = ((pspec.kind, fit.slope, fit.intercept, fit.r_squared),)
    tables = [
        Table(
            "variance",
            ("kind", "n", "k", "trials", "mean", "variance"),
            tuple(rows),
        ),
        Table("fit", ("kind", "slope", "intercept", "r_squared"), fit_rows),
    ]
    return _report(cfg, tables, verdicts, started)


def run_oracle_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Cross-validation harness: exact oracles against the production solvers.

    Parts: 'spanning' (subset enumeration vs the spanning tree at
    tau = n-1), 'sandwich' (counting lower bound <= exact <= greedy upper
    bound across tau and the gamma grid), 'lattice' (hop DP vs exhaustive
    path enumeration, plus infeasibility agreement), 'prufer' (spanning tree
    vs full labelled-tree enumeration at n = 7). Every comparison demands
    exact equality or a zero violation count. The spanning tree comes from
    dense Prim (kruskal_mst); the verdict names still say "kruskal" because
    the golden report digests pin them.
    """
    started = time.time()
    _require(len(cfg.suite) > 0, "suite selection must not be empty")
    unknown = set(cfg.suite) - {"spanning", "sandwich", "lattice", "prufer"}
    if unknown:
        raise ConfigurationError(f"unknown suite part {sorted(unknown)[0]!r}")
    _require(len(cfg.alpha_values) == 1, "oracle suite uses a single alpha")
    alpha = cfg.alpha_values[0]
    rows = []
    verdicts = []

    def add(name, criterion, checks, mismatches):
        rows.append((name, checks, mismatches))
        verdicts.append(
            Verdict(
                name=name,
                criterion=criterion,
                passed=mismatches == 0,
                measured=float(mismatches),
                threshold=0.0,
                note=f"{checks} comparisons",
            )
        )

    tree_ns = (5, 6, 7)
    if "spanning" in cfg.suite or "sandwich" in cfg.suite:
        spanning_checks = spanning_bad = 0
        sandwich_checks = sandwich_bad = 0
        gtrial = 0
        for n in tree_ns:
            for _ in range(cfg.suite_tree_instances):
                spec = cfg.tree_spec(alpha)
                inst = CompleteInstance(n, spec, SeedContext(cfg.master_seed, gtrial))
                gtrial += 1
                path = greedy_spanning_path(inst)
                mst = kruskal_mst(inst).total_weight
                if "spanning" in cfg.suite:
                    spanning_checks += 1
                    if exact_min_tree(inst, n - 1).total_weight != mst:
                        spanning_bad += 1
                if "sandwich" in cfg.suite:
                    for tau in range(1, n):
                        exact = exact_min_tree(inst, tau).total_weight
                        upper = min_tree_upper_bound(inst, tau, path)
                        slack = SANDWICH_SLACK * n
                        if exact > upper + slack:
                            sandwich_bad += 1
                        sandwich_checks += 1
                        for g in cfg.suite_gammas:
                            sandwich_checks += 1
                            if threshold_lower_bound(inst, tau, g) > exact + slack:
                                sandwich_bad += 1
        if "spanning" in cfg.suite:
            add("spanning_exact_equals_kruskal", "AC1", spanning_checks, spanning_bad)
        if "sandwich" in cfg.suite:
            add("bounds_sandwich_exact", "AC1", sandwich_checks, sandwich_bad)

    if "lattice" in cfg.suite:
        pspec = cfg.passage_spec() if cfg.distribution else PassageTimeSpec("exponential", (1.0,))
        checks = bad = 0
        for seed_off in range(cfg.suite_lattice_instances):
            lat = LatticeSpec(d=2, spec=pspec, ctx=SeedContext(cfg.master_seed, seed_off))
            for n in (1, 2, 3):
                for k in range(n, n + 5):
                    checks += 1
                    dp = hop_constrained_time(lat, n, k, box_radius=3, want_path=False)
                    oracle = enumerate_paths_oracle(lat, n, k, box_radius=3)
                    if dp.value != oracle:
                        bad += 1
                # infeasibility agreement below the L1 distance
                checks += 1
                if enumerate_paths_oracle(lat, n, n - 1, box_radius=3) is not None:
                    bad += 1
                try:
                    hop_constrained_time(lat, n, n - 1, box_radius=3)
                    bad += 1  # should have signalled infeasibility
                except InfeasibleError:
                    pass
        add("hop_dp_equals_enumeration", "AC3", checks, bad)

    if "prufer" in cfg.suite:
        checks = bad = 0
        for seed_off in range(cfg.suite_prufer_instances):
            spec = cfg.tree_spec(alpha)
            inst = CompleteInstance(7, spec, SeedContext(cfg.master_seed, 10_000 + seed_off))
            checks += 1
            if kruskal_mst(inst).total_weight != prufer_mst_weight(inst):
                bad += 1
        add("kruskal_equals_prufer_enumeration", "AC2", checks, bad)

    tables = [Table("suite", ("part", "comparisons", "mismatches"), tuple(rows))]
    return _report(cfg, tables, verdicts, started)


DRIVERS = {
    "tree-scaling": run_tree_scaling,
    "tree-variance": run_tree_variance,
    "yj-moments": run_yj_moments,
    "fpp-band": run_fpp_band,
    "constraint-decay": run_constraint_decay,
    "fpp-variance": run_fpp_variance,
    "oracle-suite": run_oracle_suite,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    driver = DRIVERS.get(cfg.experiment)
    if driver is None:
        raise ConfigurationError(f"unknown experiment {cfg.experiment!r}")
    return driver(cfg)
