"""Configuration-driven Monte Carlo experiment drivers.

One driver per quantitative claim: tree-weight scaling and variance, the
nearest-unvisited-edge moment band, the lattice passage-time band, the
constraint-mismatch decay, the passage-time variance growth, and a
cross-validation oracle suite. Each driver returns an ExperimentReport whose
tables and verdicts are pure functions of the configuration. All seven
drivers run their trials through _sweep, the one place the trial-index rule
lives: trial t of sweep point p uses trial index first + p * trials + t
under the master seed. _sweep hands out blocks of consecutive trials of one
point, each a SeedContext of count trials, to a block function; every
solver call in one but Dijkstra serves the whole block. Width helpers next
to the block functions check one trial's arrays against the array budget
and return the widths _sweep cuts blocks by. Drivers compute every width
before _sweep starts, so an oversized config runs no trial and no pool.
The oracle suite pins its parts at indices p * suite_tree_instances + t
(trees, n = 5, 6, 7), t (lattice) and 10_000 + t (Pruefer, AC2, which runs
the tree-oracle trial at n = 7 with only its spanning comparison).
Aggregation runs in trial order, so reports are identical no matter how many
workers computed them.

Verdict.criterion names the acceptance criterion (AC1..AC11) the verdict
implements. A verdict passes when measured <= threshold (_at_most); a
vacuous check reports measured 0.0 under the same rule. Two verdicts are
built by hand. The slope fit reports the slope but passes when it lies
within 0.08 of 1 - alpha, because a slope has a target rather than a
ceiling and the pinned reports echo the slope itself. The single-n
stabilization verdict passes as vacuous whatever its tolerance, a negative
one included.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, rng, weights
from .errors import ConfigurationError, InfeasibleError
from .lattice import (
    LatticeSpec,
    enumerate_paths_oracle,
    hop_constrained_certified,
    hop_constrained_time,
    require_oracle_arrays,
    require_trial_arrays,
    straight_path_time,
    unconstrained_time,
)
from .stats import chi2_quantile, loglog_fit, summarize, wilson_interval
from .trees import (
    CompleteInstance,
    exact_min_tree,
    greedy_spanning_path,
    kruskal_mst,
    light_edge_count,
    min_tree_upper_bound,
    prufer_mst_weight,
    sample_yj,
    subset_stack_cells,
    threshold_lower_bound,
)
from .weights import PassageTimeSpec, SeedContext, TreeWeightSpec, require_array

# Absolute slack for the per-trial sandwich chain, scaled by n (accumulation
# tolerance of the canonical edge sums).
SANDWICH_SLACK = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Not every field applies to every driver: run_experiment rejects a field
    set away from its default unless DRIVER_FIELDS lists it for the driver,
    and each driver validates the fields it reads before doing any work.
    """

    experiment: str
    master_seed: int = 1
    trials: int = 100
    workers: int = 1
    # tree-weight family and sweeps
    alpha_values: tuple[float, ...] = (0.5,)
    n_values: tuple[int, ...] = ()
    m_min: float = 1.0
    heterogeneous: bool = False
    rho: float = 1.0
    gamma: float = 1.0
    # nearest-edge moments
    n: int = 0
    j_values: tuple[int, ...] = ()
    exp_moment_s: float = 2.0
    # lattice
    d: int = 2
    distribution: dict = field(default_factory=dict)
    k_multiple: int = 3
    k_values: tuple[int, ...] = ()
    # accepted, checked and echoed, but no solver reads it: the hop DP uses no box
    box_radius_factor: float = 3.0
    hops_ratio_max: float = 3.0
    stabilization_tol: float = 0.10
    # oracle suite
    suite: tuple[str, ...] = ("spanning", "sandwich", "lattice", "prufer")
    suite_tree_instances: int = 100
    suite_prufer_instances: int = 50
    suite_lattice_instances: int = 200
    suite_gammas: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Config from parsed JSON; every value must match its field's type.

        Nothing is coerced: see _matches. Lists become tuples.
        """
        clean = {}
        for key, value in raw.items():
            hint = _FIELD_TYPES.get(key)
            if hint is None:
                raise ConfigurationError(f"unknown config key {key!r}")
            if not _matches(value, hint):
                raise ConfigurationError(f"{key} must be a JSON {_json_name(hint)}, got {value!r}")
            clean[key] = tuple(value) if isinstance(value, list) else value
        if "experiment" not in clean:
            raise ConfigurationError("config is missing the key 'experiment'")
        seed = clean.get("master_seed", cls.master_seed)
        if not 0 <= seed < 2**64:
            raise ConfigurationError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")
        if clean.get("workers", 1) < 1:
            raise ConfigurationError(f"workers must be at least 1, got {clean['workers']!r}")
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
        """Tree-weight spec; out-of-range alpha or m_min raise ConfigurationError."""
        return TreeWeightSpec(alpha=alpha, m_min=self.m_min, heterogeneous=self.heterogeneous)

    def passage_spec(self) -> PassageTimeSpec:
        return passage_spec_from_config(self.distribution)


# Resolved once: typing.get_type_hints compiles every annotation string on
# each call, because this module defers annotations.
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _matches(value, hint) -> bool:
    """JSON type check without coercion.

    A bool is never a number, an int passes where a float is declared, a
    float matches only when finite (NaN and Infinity are not JSON numbers),
    and a tuple field takes a JSON list whose every element matches.
    """
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_matches(v, element) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, hint)


def _json_name(hint) -> str:
    if typing.get_origin(hint) is tuple:
        return f"list of {_json_name(typing.get_args(hint)[0])}s"
    return {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object"}[hint]


# The parameter keys each distribution kind reads, in PassageTimeSpec.params
# order, with their defaults; None marks a required key.
_DISTRIBUTION_KEYS = {
    "exponential": {"rate": 1.0},
    "uniform": {"a": None, "b": None},
    "pareto": {"x_m": None, "shape": None},
}


def passage_spec_from_config(dist: dict) -> PassageTimeSpec:
    if not dist:
        raise ConfigurationError("config key 'distribution' is missing or empty")
    kind = dist.get("kind")
    keys = _DISTRIBUTION_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigurationError(f"unknown distribution kind {kind!r}")
    extra = set(dist) - {"kind", "param_range", *keys}
    if extra:
        raise ConfigurationError(f"the {kind} distribution does not read key {sorted(extra)[0]!r}")
    params = []
    for key, default in keys.items():
        if key not in dist and default is None:
            raise ConfigurationError(f"{kind} distribution needs keys {' and '.join(map(repr, keys))}")
        value = dist.get(key, default)
        if not _matches(value, float):
            raise ConfigurationError(f"distribution key {key!r} must be a JSON number, got {value!r}")
        params.append(value)
    param_range = dist.get("param_range", (1.0, 1.0))
    if not _matches(param_range, tuple[float, ...]) or len(param_range) != 2:
        raise ConfigurationError(f"param_range must be a JSON list of two numbers, got {param_range!r}")
    return PassageTimeSpec(kind, tuple(params), tuple(param_range))


@dataclass(frozen=True)
class Verdict:
    name: str
    criterion: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""


def _at_most(name, criterion, measured, threshold, note) -> Verdict:
    """The verdict that passes when measured <= threshold; both are reported as given."""
    return Verdict(name, criterion, measured <= threshold, measured, threshold, note)


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


# -- deterministic sweep runner ------------------------------------------------


def _sweep(cfg: ExperimentConfig, fn, points, widths, trials=None, first=0) -> list:
    """Run trials trials (default cfg.trials) of every sweep point through fn.

    fn(block, *point) takes a SeedContext of consecutive trials of one point
    and returns their outcomes in trial order. Trial t of point p runs under
    master seed cfg.master_seed and trial index first + p * trials + t. A
    block of point p holds at most weights.BLOCK_ELEMENTS // widths[p]
    trials, widths[p] being one trial's elements of its largest array that
    grows with the block, as the point's width helper returns it. The
    workers are cfg.workers capped at the CPU count; with more than one,
    blocks are made small enough that each worker gets about 8, and the
    process pool starts no more workers than there are blocks. All blocks go
    through one serial pass or one pool; the result holds one outcome list
    per point, in trial order.
    """
    trials = cfg.trials if trials is None else trials
    workers = min(cfg.workers, os.cpu_count() or 1)
    tasks = []
    for p, (point, width) in enumerate(zip(points, widths)):
        size = weights.BLOCK_ELEMENTS // width
        if workers > 1:
            size = min(size, len(points) * trials // (workers * 8))
        tasks += [(block, *point) for block in SeedContext(cfg.master_seed, first + p * trials, trials).blocks(size)]
    if workers <= 1 or len(tasks) <= 1:
        blocks = [fn(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            blocks = list(pool.map(fn, *zip(*tasks)))
    outcomes = list(itertools.chain.from_iterable(blocks))
    return [outcomes[p * trials : (p + 1) * trials] for p in range(len(points))]


# -- trial functions (module level so the process pool can pickle them) -----


def _tree_scaling_trial(block, spec, n_vertices, tau, gamma):
    """Per trial of block: (spanning weight, greedy upper bound, counting lower bound, sandwich holds)."""
    inst = CompleteInstance(n_vertices, spec, block)
    msts = [tree.total_weight for tree in kruskal_mst(inst)]
    uppers = min_tree_upper_bound(inst, tau, greedy_spanning_path(inst))
    lowers = threshold_lower_bound(inst, tau, gamma)
    slack = SANDWICH_SLACK * n_vertices
    return [(mst, up, low, low <= mst + slack and mst <= up + slack) for mst, up, low in zip(msts, uppers, lowers)]


def _tree_variance_trial(block, spec, n_vertices):
    return [tree.total_weight for tree in kruskal_mst(CompleteInstance(n_vertices, spec, block))]


def _tree_width(n_vertices: int) -> int:
    """Width of a tree-driver or Pruefer trial on K_n, checked: its n x n weight matrix."""
    require_array(f"a {n_vertices} x {n_vertices} weight matrix", n_vertices**2)
    return n_vertices**2


def _yj_block(block, spec, n_vertices, j):
    """Y_j of every trial of block, from one shuffle; looks sample_yj up when called, so a wrapped one still pools."""
    return sample_yj(block, spec, n_vertices, j)


def _yj_width(n_vertices: int) -> int:
    """Width of a _yj_block trial, after checking its uint64 row of n vertices.

    The array that grows with the block is the prefix shuffle's state: n
    entries per trial in the smallest unsigned type that holds n, counted
    in 8-byte elements, rounded up (128 at n = 512). Its (j, count) intp
    table of swap targets takes under 8 / itemsize times the state's bytes,
    and sample_yj cuts its uint64 hashing into sub-blocks of its own.
    """
    require_array(f"a yj block row of {n_vertices} vertices", n_vertices)
    return -(-n_vertices * np.min_scalar_type(n_vertices).itemsize // 8)


def _first_pass(pspec, n, budgets) -> tuple:
    """The budgets that a lattice block's first hop-DP pass answers, () when none runs.

    Under a law with infimum 0 (only the exponential) the straight-path
    limit prunes almost none of Dijkstra's box, so when the increasing
    schedule budgets has a budget in (n, ceil(1.5n)], one block pass runs to
    the largest such budget K and answers every budget up to K.
    """
    window = [k for k in budgets if n < k <= (3 * n + 1) // 2]
    if pspec.kind != "exponential" or not window:
        return ()
    return budgets[: budgets.index(window[-1]) + 1]


def _lattice_trial(block, pspec, d, n, budgets):
    """Per trial of block: (T_n, straight-path time, ((T_n(k), hop count) for each budget k)).

    budgets is an increasing schedule. The straight paths, the first hop-DP
    pass of _first_pass and Dijkstra each run once for the whole block. Each
    trial's last target label of that pass, the time of a real walk, bounds
    T_n and becomes its Dijkstra limit: the one search from both ends stops
    near half of it. Without that pass the straight-path time is the limit,
    which under the other laws already keeps the search to under half the box.

    A budget k past the first pass's at or above the hop count of a trial's
    Dijkstra witness admits the witness, so T_n(k) = T_n: it takes T_n and
    that hop count with no DP. At most one more DP pass, per trial on a
    context of one, answers a trial's remaining budgets below that hop
    count: a pass over the whole block to the larger budget could exceed
    the array budget.
    """
    lattices = LatticeSpec(d, pspec, block)
    head = _first_pass(pspec, n, budgets)
    straights = straight_path_time(lattices, n)
    firsts = hop_constrained_certified(lattices, n, head) if head else ((),) * block.count
    frees = unconstrained_time(lattices, n, [r[-1].value if r else s for r, s in zip(firsts, straights)])
    out = []
    for ctx, straight, free, results in zip(block.blocks(1), straights, frees, firsts):
        below = [k for k in budgets[len(results) :] if k < free.hop_count]
        if below:
            (rest,) = hop_constrained_certified(LatticeSpec(d, pspec, ctx), n, below)
            results += rest
        results += (free,) * (len(budgets) - len(results))
        out.append((free.value, straight, tuple((r.value, r.hop_count) for r in results)))
    return out


def _lattice_width(pspec, d, n, budgets) -> int:
    """Width of a _lattice_trial point, checked: n straight-path edges or the first pass's label grid."""
    head = _first_pass(pspec, n, budgets)
    return require_trial_arrays(d, n, head[-1] if head else None)


def _tree_oracle_trial(block, spec, n_vertices, parts, gammas):
    """(spanning mismatches, sandwich violations) per K_n instance of block; see run_oracle_suite."""
    inst = CompleteInstance(n_vertices, spec, block)
    spanning_bad, sandwich_bad = [0] * block.count, [0] * block.count
    if "spanning" in parts:
        spanning_bad = [tree.total_weight != w for tree, w in zip(kruskal_mst(inst), prufer_mst_weight(inst))]
    if "sandwich" in parts:
        paths = greedy_spanning_path(inst)
        counts = [light_edge_count(inst, g) for g in gammas]  # one scan per gamma serves every tau
        slack = SANDWICH_SLACK * n_vertices
        for tau in range(1, n_vertices):
            uppers = min_tree_upper_bound(inst, tau, paths)
            lowers = [threshold_lower_bound(inst, tau, g, c) for g, c in zip(gammas, counts)]
            for t, tree in enumerate(exact_min_tree(inst, tau)):
                exact = tree.total_weight
                sandwich_bad[t] += exact > uppers[t] + slack
                sandwich_bad[t] += sum(lower[t] > exact + slack for lower in lowers)
    return list(zip(spanning_bad, sandwich_bad))


def _lattice_oracle_trial(block, pspec):
    """Hop-DP mismatches against path enumeration on each d = 2 lattice of block (18 checks each)."""
    lat = LatticeSpec(d=2, spec=pspec, ctx=block)
    bad = [0] * block.count
    for n in (1, 2, 3):
        passes = hop_constrained_certified(lat, n, range(n, n + 5))
        oracles = enumerate_paths_oracle(lat, n, range(n - 1, n + 5))
        for t, (results, (below, *oracle)) in enumerate(zip(passes, oracles)):
            bad[t] += sum(r.value != v for r, v in zip(results, oracle))
            # infeasibility agreement below the L1 distance
            bad[t] += below is not None
        try:
            hop_constrained_time(lat, n, n - 1)
            bad = [b + 1 for b in bad]  # should have signalled infeasibility
        except InfeasibleError:
            pass
    return bad


# -- drivers -----------------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise ConfigurationError(message)


def _require_distinct(values, what):
    _require(len(set(values)) == len(values), f"{what} must not repeat values")


def _validate_tree_sweep(cfg: ExperimentConfig):
    _require(cfg.trials >= 1, "trials must be at least 1")
    _require(len(cfg.n_values) > 0, "n sweep must not be empty")
    _require(all(n >= 2 for n in cfg.n_values), "tree sizes must be at least 2")
    _require_distinct(cfg.n_values, "n sweep")
    _require(len(cfg.alpha_values) > 0, "alpha sweep must not be empty")
    _require_distinct(cfg.alpha_values, "alpha sweep")
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
    _require(cfg.gamma > 0.0, "gamma must be positive")
    specs = [cfg.tree_spec(alpha) for alpha in cfg.alpha_values]
    points = [(spec, n, n - 1, cfg.gamma) for spec in specs for n in cfg.n_values]
    widths = [_tree_width(n) for _, n, _, _ in points]
    outcomes = iter(zip(points, _sweep(cfg, _tree_scaling_trial, points, widths)))
    summary_rows = []
    fit_rows = []
    verdicts = []
    total_violations = 0
    for alpha in cfg.alpha_values:
        means = []
        for (_, n, tau, _), out in itertools.islice(outcomes, len(cfg.n_values)):
            values, uppers, lowers, oks = zip(*out)
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
        fit = loglog_fit(means)
        target = 1.0 - alpha
        dev = abs(fit.slope - target)
        fit_rows.append((alpha, fit.slope, fit.intercept, fit.r_squared, target, dev))
        verdicts.append(
            Verdict(f"slope_alpha_{alpha:g}", "AC4", dev <= 0.08, fit.slope, 0.08, f"target {target:g}")
        )
    verdicts.append(
        _at_most(
            "sandwich_all_trials",
            "AC4",
            float(total_violations),
            0.0,
            "lower <= spanning weight <= greedy prefix on every trial",
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
    spec = cfg.tree_spec(alpha)
    rows = []
    verdicts = []
    widths = [_tree_width(n) for n in cfg.n_values]
    outcomes = _sweep(cfg, _tree_variance_trial, [(spec, n) for n in cfg.n_values], widths)
    for n, values in zip(cfg.n_values, outcomes):
        s = summarize(values)
        # upper 95% chi-square confidence bound under approximate normality
        df = cfg.trials - 1
        var_upper = df * s.unbiased_variance / chi2_quantile(0.05, df)
        rows.append((alpha, n, cfg.trials, s.mean, s.unbiased_variance, var_upper, var_upper / n))
        note = "upper 95% confidence bound on var"
        verdicts.append(_at_most(f"variance_n_{n}", "AC5", var_upper, 2.5 * n, note))
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
    _require_distinct(cfg.j_values, "j sweep")
    _require(all(1 <= j < cfg.n for j in cfg.j_values), "j values must lie in 1..n-1")
    _require(len(cfg.alpha_values) == 1, "yj-moments sweeps a single alpha")
    _require(cfg.trials >= 1, "trials must be at least 1")
    alpha = cfg.alpha_values[0]
    spec = cfg.tree_spec(alpha)
    width = _yj_width(cfg.n)
    s_param = cfg.exp_moment_s
    rows = []
    scaled_means = []
    exp_checks = []
    outcomes = _sweep(cfg, _yj_block, [(spec, cfg.n, j) for j in cfg.j_values], [width] * len(cfg.j_values))
    for j, ys in zip(cfg.j_values, outcomes):
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
    if exp_checks:
        worst_j, worst = max(exp_checks, key=lambda it: it[1])
        exp_note = f"s={s_param:g}, worst at j={worst_j}"
    else:
        worst, exp_note = 0.0, "no j at most n-16 in the sweep; vacuous"
    verdicts = [
        _at_most("scaled_mean_band", "AC6", ratio, 3.0, "max/min of (n-j)^alpha * mean(Y_j)"),
        _at_most("scaled_exp_moment", "AC6", worst, 10.0, exp_note),
    ]
    tables = [
        Table(
            "moments",
            ("alpha", "n", "j", "trials", "mean_y", "scaled_mean", "scaled_log_exp_moment"),
            tuple(rows),
        )
    ]
    return _report(cfg, tables, verdicts, started)


def _validate_lattice(cfg: ExperimentConfig) -> PassageTimeSpec:
    """Check the fields every lattice driver reads; returns the passage-time spec."""
    _require(cfg.d >= 2, "lattice dimension must be at least 2")
    _require(cfg.trials >= 1, "trials must be at least 1")
    _require(all(n >= 1 for n in cfg.n_values), "lattice n values must be at least 1")
    _require_distinct(cfg.n_values, "n sweep")
    return cfg.passage_spec()


def run_fpp_band(cfg: ExperimentConfig) -> ExperimentReport:
    """Linear band for constrained and unconstrained passage times.

    Per trial the chain T_n <= T_n(k) <= straight-path time must hold
    outright; across the top half of the n sweep the mean T_n / n must
    stabilize within the configured tolerance; the mean hop ratio stays
    below hops_ratio_max.
    """
    started = time.time()
    pspec = _validate_lattice(cfg)
    _require(len(cfg.n_values) > 0, "n sweep must not be empty")
    _require(cfg.k_multiple >= 1, "k_multiple must be at least 1 so that k >= n")
    points = [(pspec, cfg.d, n, (cfg.k_multiple * n,)) for n in cfg.n_values]
    rows = []
    violations = 0
    tinf_means = []
    hop_ratios = []
    widths = [_lattice_width(*point) for point in points]
    for (_, _, n, (k,)), out in zip(points, _sweep(cfg, _lattice_trial, points, widths)):
        t_inf, t_straight, t_k, n_hops = zip(*((a, b, c, h) for a, b, ((c, h),) in out))
        tk = summarize([v / n for v in t_k])
        tinf = summarize([v / n for v in t_inf])
        straight = summarize([v / n for v in t_straight])
        hops = summarize([v / n for v in n_hops])
        bad = sum(1 for a, b, c in zip(t_inf, t_k, t_straight) if not a <= b <= c)
        violations += bad
        tinf_means.append((n, tinf.mean))
        hop_ratios.append(hops.mean)
        rows.append(
            (n, k, cfg.trials, tk.mean, tinf.mean, straight.mean, hops.mean, tk.standard_error, bad)
        )
    top = tinf_means[len(tinf_means) // 2 :]
    if len(top) >= 2:
        lo = min(m for _, m in top)
        hi = max(m for _, m in top)
        spread = hi / lo - 1.0
        stab_note = f"relative spread of mean T_n/n over n >= {top[0][0]}"
        stabilization = _at_most("mean_stabilization", "AC7", spread, cfg.stabilization_tol, stab_note)
    else:
        stab_note = "insufficient sweep: single n value, vacuous"
        stabilization = Verdict("mean_stabilization", "AC7", True, 0.0, cfg.stabilization_tol, stab_note)
    verdicts = [
        _at_most("ordering_chain", "AC7", float(violations), 0.0, "T_n <= T_n(k) <= straight path, every trial"),
        stabilization,
        _at_most("hop_ratio", "AC7", max(hop_ratios), cfg.hops_ratio_max, "max over n of mean N_n(k)/n"),
    ]
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
    pspec = _validate_lattice(cfg)
    _require(cfg.n >= 1, "set n to the (single) target abscissa")
    _require(len(cfg.k_values) > 0, "k schedule must not be empty")
    ks = cfg.k_values
    _require(all(b > a for a, b in zip(ks, ks[1:])), "k schedule must be strictly increasing")
    _require(ks[0] >= cfg.n, "k schedule must start at or above n")
    (out,) = _sweep(cfg, _lattice_trial, [(pspec, cfg.d, cfg.n, ks)], [_lattice_width(pspec, cfg.d, cfg.n, ks)])
    rows = []
    estimates = []
    for idx, k in enumerate(ks):
        mism = sum(1 for tinf, _, per_k in out if per_k[idx][0] != tinf)
        est = wilson_interval(mism, cfg.trials)
        estimates.append(est)
        rows.append((cfg.n, k, cfg.trials, mism, est.point, est.wilson_low, est.wilson_high, k * est.point))
    monotone_bad = 0
    for a, b in zip(estimates, estimates[1:]):
        if b.point > a.point and b.wilson_low > a.wilson_high:
            monotone_bad += 1
    first = ks[0] * estimates[0].point
    last = ks[-1] * estimates[-1].point
    # k * estimate is never negative; growth from 0 to anything positive is unbounded
    ratio = last / first if first > 0.0 else (math.inf if last > 0.0 else 0.0)
    verdicts = [
        _at_most("mismatch_monotone", "AC8", float(monotone_bad), 0.0, "adjacent increases outside Wilson overlap"),
        _at_most("k_times_p_envelope", "AC8", ratio, 2.0, "growth of k * estimate from smallest to largest k"),
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
    pspec = _validate_lattice(cfg)
    _require(len(cfg.n_values) >= 2, "variance fit needs at least two n values")
    _require(cfg.trials >= 2, "variance needs at least 2 trials")
    _require(cfg.k_multiple >= 1, "k_multiple must be at least 1 so that k >= n")
    grid = [(pspec, cfg.d, n, (cfg.k_multiple * n,)) for n in cfg.n_values]
    rows = []
    points = []
    widths = [_lattice_width(*point) for point in grid]
    for (_, _, n, (k,)), out in zip(grid, _sweep(cfg, _lattice_trial, grid, widths)):
        s = summarize([tk for _, _, ((tk, _),) in out])
        rows.append((pspec.kind, n, k, cfg.trials, s.mean, s.unbiased_variance))
        points.append((n, s.unbiased_variance))
    if any(v <= 0.0 for _, v in points):
        slope, note, fit_rows = 0.0, "degenerate: nonpositive variance, no fit", ()
    else:
        fit = loglog_fit(points)
        slope, note = fit.slope, f"kind {pspec.kind}"
        fit_rows = ((pspec.kind, fit.slope, fit.intercept, fit.r_squared),)
    verdicts = [_at_most("variance_slope", "AC9", slope, 1.3, note)]
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

    Parts: 'spanning' (the spanning tree vs full labelled-tree enumeration
    at n = 5, 6, 7), 'sandwich' (counting lower bound <= subset-enumeration
    exact <= greedy upper bound across tau and the gamma grid), 'lattice'
    (hop DP vs exhaustive path enumeration, one path table per n for all
    its budgets, plus infeasibility agreement), 'prufer' (spanning tree vs
    full labelled-tree enumeration at n = 7, on its own seeds, through the
    spanning comparison of the tree-oracle trial). Every comparison
    demands exact equality or a zero violation count. The spanning tree
    comes from dense Prim (kruskal_mst); the verdict names still say
    "kruskal" because the golden report digests pin them.
    """
    started = time.time()
    _require(len(cfg.suite) > 0, "suite selection must not be empty")
    unknown = set(cfg.suite) - {"spanning", "sandwich", "lattice", "prufer"}
    if unknown:
        raise ConfigurationError(f"unknown suite part {sorted(unknown)[0]!r}")
    _require(len(cfg.alpha_values) == 1, "oracle suite uses a single alpha")
    _require(all(g > 0.0 for g in cfg.suite_gammas), "suite gammas must be positive")
    _require_distinct(cfg.suite_gammas, "suite gammas")
    for key in ("suite_tree_instances", "suite_prufer_instances", "suite_lattice_instances"):
        _require(getattr(cfg, key) >= 1, f"{key} must be at least 1")
    spec = cfg.tree_spec(cfg.alpha_values[0])
    rows = []
    verdicts = []

    def add(name, criterion, checks, mismatches):
        rows.append((name, checks, mismatches))
        verdicts.append(_at_most(name, criterion, float(mismatches), 0.0, f"{checks} comparisons"))

    tree_ns = (5, 6, 7)
    if "spanning" in cfg.suite or "sandwich" in cfg.suite:
        points = [(spec, n, cfg.suite, cfg.suite_gammas) for n in tree_ns]
        # a trial's largest array is exact_min_tree's subset stack at its widest tau
        widths = [max(subset_stack_cells(n, tau) for tau in range(1, n)) for n in tree_ns]
        out = _sweep(cfg, _tree_oracle_trial, points, widths, trials=cfg.suite_tree_instances)
        spanning_bad, sandwich_bad = map(sum, zip(*itertools.chain.from_iterable(out)))
        if "spanning" in cfg.suite:
            add("spanning_exact_equals_kruskal", "AC1", len(tree_ns) * cfg.suite_tree_instances, spanning_bad)
        if "sandwich" in cfg.suite:
            checks = sum(n - 1 for n in tree_ns) * (1 + len(cfg.suite_gammas)) * cfg.suite_tree_instances
            add("bounds_sandwich_exact", "AC1", checks, sandwich_bad)

    if "lattice" in cfg.suite:
        pspec = cfg.passage_spec() if cfg.distribution else PassageTimeSpec("exponential", (1.0,))
        # the longest path-oracle row; each DP label grid, w x h, is shorter: wh <= 2wh - w - h + 1
        width = max(require_oracle_arrays(n, n + 4) for n in (1, 2, 3))
        (out,) = _sweep(cfg, _lattice_oracle_trial, [(pspec,)], [width], trials=cfg.suite_lattice_instances)
        add("hop_dp_equals_enumeration", "AC3", 18 * cfg.suite_lattice_instances, sum(out))

    if "prufer" in cfg.suite:
        point = (spec, 7, ("spanning",), ())
        width = _tree_width(7)
        (out,) = _sweep(cfg, _tree_oracle_trial, [point], [width], trials=cfg.suite_prufer_instances, first=10_000)
        add("kruskal_equals_prufer_enumeration", "AC2", cfg.suite_prufer_instances, sum(s for s, _ in out))

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

# Config fields each driver reads besides experiment, master_seed and workers.
# The lattice drivers list box_radius_factor, which no solver reads, because
# pinned configs set it.
_TREE = ("alpha_values", "m_min", "heterogeneous")
_LATTICE = ("trials", "d", "distribution", "box_radius_factor")
DRIVER_FIELDS = {
    "tree-scaling": ("trials", "n_values", "rho", "gamma", *_TREE),
    "tree-variance": ("trials", "n_values", "rho", *_TREE),
    "yj-moments": ("trials", "n", "j_values", "exp_moment_s", *_TREE),
    "fpp-band": ("n_values", "k_multiple", "hops_ratio_max", "stabilization_tol", *_LATTICE),
    "constraint-decay": ("n", "k_values", *_LATTICE),
    "fpp-variance": ("n_values", "k_multiple", *_LATTICE),
    "oracle-suite": ("suite", "suite_gammas", "suite_tree_instances", "suite_prufer_instances",
                     "suite_lattice_instances", "distribution", *_TREE),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run cfg's driver; a field the driver does not read must keep its default."""
    driver = DRIVERS.get(cfg.experiment)
    if driver is None:
        raise ConfigurationError(f"unknown experiment {cfg.experiment!r}")
    reads = {"experiment", "master_seed", "workers", *DRIVER_FIELDS[cfg.experiment]}
    default = ExperimentConfig(cfg.experiment)
    for f in fields(cfg):
        if f.name not in reads and getattr(cfg, f.name) != getattr(default, f.name):
            raise ConfigurationError(f"the {cfg.experiment} experiment does not read config key {f.name!r}")
    if driver in (run_fpp_band, run_constraint_decay, run_fpp_variance):
        # Dijkstra's scipy.sparse, loaded before a sweep can fork pool
        # workers, which inherit it. Where it loads matters: the import's
        # page faults grow with some Python stack depths (CPython 3.11 maps
        # frame-stack chunks as its recursion crosses them), and loaded
        # inside _sweep it made a constraint-decay run 30-50 ms slower.
        import scipy.sparse.csgraph  # noqa: F401
    return driver(cfg)
