import ast
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minweight.experiments as exp_mod
from minweight import lattice, trees, weights
from minweight.cli import SMOKE_CONFIGS, report_document
from minweight.errors import CapacityError, ConfigurationError
from minweight.experiments import (
    DRIVER_FIELDS,
    ExperimentConfig,
    Verdict,
    _lattice_trial,
    _sweep,
    passage_spec_from_config,
    run_constraint_decay,
    run_experiment,
    run_fpp_band,
    run_fpp_variance,
    run_oracle_suite,
    run_tree_scaling,
    run_tree_variance,
    run_yj_moments,
)
from minweight.lattice import LatticeSpec, hop_constrained_time, straight_path_time, unconstrained_time
from minweight.trees import _prefix_block, sample_yj
from minweight.weights import PassageTimeSpec, SeedContext, TreeWeightSpec
from reference import random_prefix, yj_trial

# First-run golden digests of the built-in smoke configurations. These pin
# the entire report content (config echo, every table cell, verdicts): any
# change to the mixer, the solvers, or the aggregation invalidates them on
# purpose.
GOLDEN_DIGESTS = {
    "tree-scaling": "551eae6628b1fd1fd4d1c068410a01850dca81450dbc12c079c9788120fb152c",
    "tree-variance": "c4b33f4060230bdb5dc3efbea7d53818f73084641315af554b19abbd65b909fe",
    "yj-moments": "1a051d0bc58f1c6d21f3d7ab0bd4b51479c47afc4f01a4dc79604d8d769ddcfc",
    "fpp-band": "72597ad532762b2ce7f591b619f10373da00a40ecf8a518ede308d646eebbbb2",
    "constraint-decay": "9d2f7a76efa47920a108f4d86c673529011fe39ae3673260cab5062757a5bab5",
    "fpp-variance": "c35bb1506948f9f1f9ff6c97ce5b866b34aadbcc8644092693456d3f97f6f1b5",
    "oracle-suite": "24dc02c5609721bfacf12e9f6eb1941d7263213993fca9d66dbb7ac356fb4cda",
}


def digest(report):
    doc = json.dumps(report_document(report), indent=2, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def smoke(name, **overrides):
    raw = dict(SMOKE_CONFIGS[name])
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_smoke_goldens(name):
    report = run_experiment(smoke(name))
    assert report.passed
    assert digest(report) == GOLDEN_DIGESTS[name]


def test_goldens_do_not_depend_on_numpy_cpu_dispatch():
    # numpy picks its power, log1p and other kernels per CPU when it loads;
    # with the AVX-512 (X86_V4) ones switched off, a tree and a lattice smoke
    # report keep their digests
    src = Path(exp_mod.__file__).parents[1]
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    )
    code = """
import hashlib, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from minweight.cli import SMOKE_CONFIGS, report_document
from minweight.experiments import ExperimentConfig, run_experiment
print(__cpu_features__.get("X86_V4", False))
for name in sys.argv[1:]:
    doc = json.dumps(report_document(run_experiment(ExperimentConfig.from_dict(SMOKE_CONFIGS[name]))), indent=2, sort_keys=True)
    print(hashlib.sha256(doc.encode()).hexdigest())
"""
    names = ["tree-scaling", "fpp-band"]
    out = subprocess.run([sys.executable, "-c", code, *names], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"] + [GOLDEN_DIGESTS[name] for name in names]


# Small runs of all seven drivers; the multi-point ones share one pool
# across their sweep points at workers=2, and the oracle suite opens one pool
# per part.
SMALL_SWEEPS = {
    "tree-scaling": {},
    "tree-variance": {"trials": 100, "n_values": [32, 64]},
    "yj-moments": {"trials": 50},
    "fpp-band": {"trials": 5},
    "constraint-decay": {"trials": 20},
    "fpp-variance": {"trials": 10},
    "oracle-suite": {"suite_tree_instances": 3, "suite_prufer_instances": 2, "suite_lattice_instances": 4},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_smoke_reports_do_not_depend_on_the_block_size(monkeypatch, name):
    # at 64 elements the tree, yj, lattice-DP and lattice-oracle blocks hold
    # one trial each; at 2**18 the tree-variance smoke (n = 256) holds 4
    for cap in (64, 2**18):
        monkeypatch.setattr(weights, "BLOCK_ELEMENTS", cap)
        assert digest(run_experiment(smoke(name))) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SMALL_SWEEPS))
def test_worker_count_does_not_change_report(name):
    base = run_experiment(smoke(name, **SMALL_SWEEPS[name]))
    pooled = run_experiment(smoke(name, workers=2, **SMALL_SWEEPS[name]))
    assert report_document(base) == report_document(pooled)


def _block_trial_indices(block):
    """A block trial function: the trial indices of its rows."""
    return block.trials[:, 0].tolist()


def _block_sizes(block):
    """A block trial function: the block's size, once per trial."""
    return [block.count] * block.count


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_runs_trial_t_of_point_p_at_index_p_trials_plus_t(workers):
    cfg = ExperimentConfig(experiment="tree-scaling", trials=4, workers=workers)
    # per-point widths of all, a third and half of BLOCK_ELEMENTS cut the
    # points' 4 trials into blocks of 1, of 3 and 1, and of 2
    cap = weights.BLOCK_ELEMENTS
    for widths in ([1, 1, 1], [cap, cap // 3, cap // 2]):
        got = _sweep(cfg, _block_trial_indices, [(), (), ()], widths)
        assert got == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        # explicit trials and first override cfg.trials and shift every index
        got = _sweep(cfg, _block_trial_indices, [(), (), ()], widths, trials=2, first=10_000)
        assert got == [[10_000, 10_001], [10_002, 10_003], [10_004, 10_005]]
    if workers == 1:
        sizes = _sweep(cfg, _block_sizes, [(), (), ()], [cap, cap // 3, cap // 2])
        assert sizes == [[1, 1, 1, 1], [3, 3, 3, 1], [2, 2, 2, 2]]


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and maps serially."""

    opened = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_pool_is_bounded_by_cpus_and_blocks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "opened", [])
    expected = [list(range(p * 64, (p + 1) * 64)) for p in range(3)]
    cfg = ExperimentConfig(experiment="tree-scaling", trials=64, workers=100_000)
    # 100000 workers on 4 CPUs: a pool of 4, and blocks of 3 * 64 // (4 * 8) = 6 trials
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _sweep(cfg, _block_trial_indices, [(), (), ()], [1, 1, 1]) == expected
    assert _sweep(cfg, _block_sizes, [(), (), ()], [1, 1, 1])[0] == [6] * 60 + [4] * 4
    # two blocks of one trial each open two workers, not four
    assert _sweep(cfg, _block_trial_indices, [()], [1], trials=2) == [[0, 1]]
    assert _RecordingPool.opened == [4, 4, 2]
    # one CPU, or an unknown count, runs serially in whole blocks without a pool
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _sweep(cfg, _block_sizes, [(), (), ()], [1, 1, 1]) == [[64] * 64] * 3
    assert _RecordingPool.opened == [4, 4, 2]


def test_one_trial_budget_check_covers_every_block():
    # a block holds at most BLOCK_ELEMENTS elements or one trial, so checking
    # one trial's arrays against the budget checks every block's
    assert 8 * weights.BLOCK_ELEMENTS <= weights.ARRAY_BYTES


def test_width_helpers_keep_the_benchmark_widths():
    exponential = PassageTimeSpec("exponential", (1.0,))
    # yj-prefix: the shuffle state's 512 uint16 entries, 512 * 2 / 8 = 128 uint64 elements
    assert exp_mod._yj_width(512) == 128
    # lattice-decay: the first pass's 97 x 33 label grid at (n, K) = (64, 96)
    assert exp_mod._lattice_width(exponential, 2, 64, (64, 72, 80, 96, 128)) == 97 * 33
    # oracle-selftest: the Pruefer point's matrix and the lattice oracle's
    # longest row, n = 3's 67 grid edges and the 0.0 column
    assert exp_mod._tree_width(7) == 49
    assert [lattice.require_oracle_arrays(n, n + 4) for n in (1, 2, 3)] == [50, 59, 68]


def test_one_budget_lattice_blocks_count_the_straight_path(monkeypatch):
    # without a first DP pass a trial's widest block array is its straight
    # path of n edge times: at n = 64, at most 2**15 // 64 = 512 trials a block
    sizes = []

    def recording_trial(block, pspec, d, n, budgets):
        sizes.append(block.count)
        return [(1.0, 1.0, ((1.0, n),))] * block.count

    monkeypatch.setattr(exp_mod, "_lattice_trial", recording_trial)
    run_fpp_band(smoke("fpp-band", n_values=[64], trials=1000, workers=1))
    assert sum(sizes) == 1000 and max(sizes) <= 512


@pytest.mark.parametrize("workers", [1, 2])
def test_yj_prefix_config_runs_one_block_per_point(monkeypatch, workers):
    # the yj-prefix config: 200 trials fit one block of at most 2**15 // 128
    # = 256; two workers cut 5 * 200 // (2 * 8) = 62-trial blocks
    sizes = []

    def recording_block(block, spec, n_vertices, j):
        sizes.append(block.count)
        return [0.5] * block.count

    monkeypatch.setattr(exp_mod, "_yj_block", recording_block)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = smoke("yj-moments", trials=200, alpha_values=[0.5], n=512, j_values=[1, 128, 256, 384, 448], workers=workers)
    run_yj_moments(cfg)
    assert sizes == ([200] if workers == 1 else [62, 62, 62, 14]) * 5


def test_no_module_imports_another_modules_private_name():
    for path in sorted(Path(exp_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, (path.name, node.module, private)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("het", [False, True])
def test_yj_blocks_through_sweep_match_per_trial_reference(monkeypatch, workers, het):
    spec = TreeWeightSpec(alpha=0.5, m_min=0.5 if het else 1.0, heterogeneous=het)
    n, trials = 24, 40
    points = [(spec, n, j) for j in (1, 12, n - 1)]
    cfg = ExperimentConfig(experiment="yj-moments", master_seed=5, trials=trials, workers=workers)
    expected = [
        [yj_trial(SeedContext(5, p * trials + t), spec, n, j) for t in range(trials)]
        for p, (_, _, j) in enumerate(points)
    ]
    # 13 blocks of 3 trials and one of 1 per point, at both worker counts;
    # then one-trial blocks, because one row is wider than the cap
    for cap in (3 * n, n - 1):
        monkeypatch.setattr(weights, "BLOCK_ELEMENTS", cap)
        assert _sweep(cfg, sample_yj, points, [n] * len(points)) == expected


def test_pooled_yj_run_takes_a_wrapped_sample_yj(monkeypatch):
    # instrumentation swaps experiments.sample_yj for a wrapper, which cannot be pickled
    original = exp_mod.sample_yj
    monkeypatch.setattr(exp_mod, "sample_yj", lambda *args: original(*args))
    cfg = smoke("yj-moments", trials=20, workers=2)
    assert report_document(run_experiment(cfg)) == report_document(run_experiment(dataclasses.replace(cfg, workers=1)))


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="bogus"):
        ExperimentConfig.from_dict({"experiment": "tree-scaling", "bogus": 1})
    with pytest.raises(ConfigurationError, match="experiment"):
        ExperimentConfig.from_dict({"trials": 5})
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig(experiment="nope"))


# Values of the wrong JSON type for each declared field type: a string for a
# number, a fractional number for an integer, a bool for a number.
WRONG_JSON = {
    int: ["3", 2.5, True],
    float: ["0.5", True, float("nan"), float("inf"), float("-inf")],
    bool: ["false", 0],
    str: [5, True],
    dict: ["exponential", [1.0]],
}
LIST_ELEMENT = {int: 4, float: 0.5, str: "prufer"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_config_rejects_wrong_json_type_for_every_field(name):
    hint = typing.get_type_hints(ExperimentConfig)[name]
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        wrong = [LIST_ELEMENT[element]] + [[v] for v in WRONG_JSON[element]]  # scalar for a list
    else:
        wrong = WRONG_JSON[hint]
    for value in wrong:
        raw = {"experiment": "tree-scaling", name: value}
        with pytest.raises(ConfigurationError, match=name):
            ExperimentConfig.from_dict(raw)


# Values of the right JSON type for each declared field type.
RIGHT_JSON = {
    int: st.integers(-(10**6), 10**6),
    float: st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6),
    bool: st.booleans(),
    str: st.text(max_size=12),
    dict: st.dictionaries(
        st.text(max_size=6), st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6), max_size=3
    ),
}
# Fields whose range from_dict checks beyond the type.
RIGHT_RANGE = {"master_seed": st.integers(0, 2**64 - 1), "workers": st.integers(1, 64)}


def _right_json(hint):
    if typing.get_origin(hint) is tuple:
        return st.lists(_right_json(typing.get_args(hint)[0]), max_size=4)
    return RIGHT_JSON[hint]


VALID_CONFIGS = st.fixed_dictionaries(
    {"experiment": RIGHT_JSON[str]},
    optional={
        name: RIGHT_RANGE[name] if name in RIGHT_RANGE else _right_json(hint)
        for name, hint in typing.get_type_hints(ExperimentConfig).items()
        if name != "experiment"
    },
)


@settings(max_examples=60, deadline=None)
@given(raw=VALID_CONFIGS)
def test_config_round_trips_through_its_echo(raw):
    cfg = ExperimentConfig.from_dict(raw)
    echo = json.loads(json.dumps(cfg.as_dict()))
    # the worker count is not echoed, so it comes back at its default
    assert ExperimentConfig.from_dict(echo) == dataclasses.replace(cfg, workers=1)


def test_passage_spec_from_config():
    spec = passage_spec_from_config({"kind": "uniform", "a": 0.5, "b": 1.5})
    assert spec.params == (0.5, 1.5)
    assert passage_spec_from_config({"kind": "exponential"}).params == (1.0,)
    assert passage_spec_from_config({"shape": 3, "kind": "pareto", "x_m": 2}).params == (2, 3)
    with pytest.raises(ConfigurationError, match="kind"):
        passage_spec_from_config({"kind": "gamma"})
    with pytest.raises(ConfigurationError):
        passage_spec_from_config({})
    with pytest.raises(ConfigurationError, match="shape"):
        passage_spec_from_config({"kind": "pareto", "x_m": 1.0, "shape": 1.5})
    with pytest.raises(ConfigurationError, match="scale_x"):
        passage_spec_from_config({"kind": "exponential", "scale_x": 2})


def test_tree_scaling_fit_identity_hook(monkeypatch):
    # block trial args: block, spec, n_vertices, tau, gamma
    monkeypatch.setattr(
        exp_mod, "_tree_scaling_trial", lambda block, *a: [(3.0 * a[1] ** 0.5, 0.0, 0.0, True)] * block.count
    )
    cfg = smoke("tree-scaling", workers=1)
    report = run_tree_scaling(cfg)
    slope = report.table("fits").rows[0][1]
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert report.passed


def test_tree_scaling_empty_sweep_rejected():
    with pytest.raises(ConfigurationError, match="sweep"):
        run_tree_scaling(smoke("tree-scaling", n_values=[]))
    with pytest.raises(ConfigurationError):
        run_tree_scaling(smoke("tree-scaling", alpha_values=[]))
    with pytest.raises(ConfigurationError, match="rho"):
        run_tree_scaling(smoke("tree-scaling", rho=0.5))


def test_tree_variance_constant_hook(monkeypatch):
    monkeypatch.setattr(exp_mod, "_tree_variance_trial", lambda block, *a: [7.25] * block.count)
    cfg = smoke("tree-variance", workers=1)
    report = run_tree_variance(cfg)
    row = report.table("variance").rows[0]
    assert row[4] == 0.0  # variance
    assert report.passed


def test_tree_variance_requires_trials():
    with pytest.raises(ConfigurationError, match="trials"):
        run_tree_variance(smoke("tree-variance", trials=1))


def test_yj_degenerate_sweep_and_guards():
    report = run_yj_moments(smoke("yj-moments", j_values=[64], trials=50, n=128))
    band = [v for v in report.verdicts if v.name == "scaled_mean_band"][0]
    assert band.measured == 1.0 and band.passed
    with pytest.raises(ConfigurationError, match="j values"):
        run_yj_moments(smoke("yj-moments", j_values=[512]))
    with pytest.raises(ConfigurationError):
        run_yj_moments(smoke("yj-moments", j_values=[]))


def test_yj_sweep_without_small_j_reports_a_vacuous_exp_moment():
    report = run_yj_moments(smoke("yj-moments", n=32, j_values=[20, 24], trials=20))
    vacuous = Verdict("scaled_exp_moment", "AC6", True, 0.0, 10.0, "no j at most n-16 in the sweep; vacuous")
    assert report.verdicts[1] == vacuous


def test_random_prefix_distinct_and_deterministic():
    rows = _prefix_block(SeedContext(3, 17, 2), 100, 12)
    assert np.array_equal(rows, _prefix_block(SeedContext(3, 17, 2), 100, 12))
    # every row is a permutation of 1..n whose first 12 entries are its prefix
    assert (np.sort(rows, axis=1) == np.arange(1, 101)).all()
    assert rows[0, :12].tolist() != rows[1, :12].tolist()
    # row 1 of the block is trial 18 on its own
    assert np.array_equal(rows[1:], _prefix_block(SeedContext(3, 18), 100, 12))


@pytest.mark.parametrize(
    "n_vertices,j,cells,array",
    [(512, 1, 128, "shuffle state of 512 vertices"), (64, 64, 64, "swap-target table of 64 steps")],
)
def test_prefix_shuffle_is_checked_against_the_budget(monkeypatch, n_vertices, j, cells, array):
    # the budget holds one trial's larger array, in 8-byte elements: 512
    # uint16 state entries or 64 intp swap targets. A block of two raises
    # naming it, and one of 4,096, megabytes of either, builds nothing
    monkeypatch.setattr(weights, "ARRAY_BYTES", 8 * cells)
    assert _prefix_block(SeedContext(1), n_vertices, j).shape == (1, n_vertices)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"{array} over 2 trials"):
            _prefix_block(SeedContext(1, 0, 2), n_vertices, j)
        with pytest.raises(CapacityError):
            _prefix_block(SeedContext(1, 0, 4096), n_vertices, j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("master", [0, 2, 2**63 + 5])
def test_random_prefix_matches_scalar_fisher_yates(master):
    for n_vertices, j in ((512, 1), (512, 448), (7, 6), (2, 1), (100, 99)):
        rows = _prefix_block(SeedContext(master, 0, 18), n_vertices, j)
        for gtrial in (0, 1, 17, 428):
            expected = random_prefix(master, gtrial, n_vertices, j)
            if gtrial < len(rows):
                assert tuple(rows[gtrial, :j].tolist()) == expected
            alone = _prefix_block(SeedContext(master, gtrial), n_vertices, j)
            assert tuple(alone[0, :j].tolist()) == expected


@pytest.mark.parametrize("n_vertices", [2, 17, 300])
@pytest.mark.parametrize("het", [False, True])
def test_prefix_shuffle_matches_the_scalar_reference_across_sub_blocks(monkeypatch, n_vertices, het):
    # a cap of 3j - 1 hashes the swap targets in sub-blocks of 2 trials, and
    # one of 2n + 1 hashes the weights in sub-blocks of 2: 7 trials cut raggedly
    spec = TreeWeightSpec(alpha=0.5, m_min=0.5 if het else 1.0, heterogeneous=het)
    block = SeedContext(9, 40, 7)
    for j in sorted({1, n_vertices // 2, n_vertices - 1}):
        expected = [yj_trial(SeedContext(9, 40 + t), spec, n_vertices, j) for t in range(7)]
        for cap in (3 * j - 1, 2 * n_vertices + 1):
            monkeypatch.setattr(weights, "BLOCK_ELEMENTS", cap)
            rows = _prefix_block(block, n_vertices, j)
            assert (np.sort(rows, axis=1) == np.arange(1, n_vertices + 1)).all()
            assert [tuple(row[:j].tolist()) for row in rows] == [
                random_prefix(9, 40 + t, n_vertices, j) for t in range(7)
            ]
            assert sample_yj(block, spec, n_vertices, j) == expected


def test_prefix_shuffle_past_the_two_byte_state():
    # n = 70000 keeps the state in uint32; Y_j is the row minimum over the
    # outside vertices of the scalar prefix
    n_vertices, j, block = 70_000, 3, SeedContext(4, 11, 2)
    spec = TreeWeightSpec(alpha=0.5)
    rows = _prefix_block(block, n_vertices, j)
    assert rows.dtype == np.uint32 and rows.shape == (2, n_vertices)
    expected = []
    for t, row in enumerate(rows):
        prefix = random_prefix(4, 11 + t, n_vertices, j)
        assert tuple(row[:j].tolist()) == prefix
        outside = np.setdiff1d(np.arange(1, n_vertices + 1), prefix)
        assert np.array_equal(np.sort(row[j:]), outside)
        expected.append(float(weights.weights_from_vertex(spec, SeedContext(4, 11 + t), prefix[-1], outside).min()))
    assert sample_yj(block, spec, n_vertices, j) == expected


@pytest.mark.parametrize("j", [1, 128, 256, 384, 448])
def test_yj_block_memory_stays_bounded(j):
    # the widest yj-prefix block, 2**15 // 128 = 256 trials at n = 512
    block, spec = SeedContext(2, 0, 256), TreeWeightSpec(alpha=0.5)
    sample_yj(SeedContext(2, 0, 1), spec, 512, j)
    tracemalloc.start()
    try:
        sample_yj(block, spec, 512, j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_fpp_band_single_n_flags_insufficient_sweep():
    report = run_fpp_band(smoke("fpp-band", n_values=[16], trials=5))
    stab = [v for v in report.verdicts if v.name == "mean_stabilization"][0]
    assert stab == Verdict("mean_stabilization", "AC7", True, 0.0, 0.10, "insufficient sweep: single n value, vacuous")


@pytest.mark.parametrize("n_values", [[16], [4, 8, 12, 16]])
def test_fpp_band_reports_integer_thresholds_as_integers(n_values):
    cfg = smoke("fpp-band", n_values=n_values, trials=3, hops_ratio_max=3, stabilization_tol=1)
    verdicts = {v["name"]: v for v in report_document(run_fpp_band(cfg))["verdicts"]}
    assert type(verdicts["hop_ratio"]["threshold"]) is int and verdicts["hop_ratio"]["threshold"] == 3
    assert type(verdicts["mean_stabilization"]["threshold"]) is int
    assert verdicts["mean_stabilization"]["threshold"] == 1


def test_fpp_band_samples_the_exponential_rate():
    # rate 2 halves every passage time, so every time in the report halves
    # exactly (scaling by a power of two commutes with rounding) and hop
    # counts stay
    slow = run_fpp_band(smoke("fpp-band", trials=5))
    fast = run_fpp_band(smoke("fpp-band", trials=5, distribution={"kind": "exponential", "rate": 2.0}))
    assert slow.tables != fast.tables
    for a, b in zip(slow.table("band").rows, fast.table("band").rows):
        assert b[3:6] == tuple(v / 2 for v in a[3:6])
        assert b[6] == a[6]


def test_fpp_band_requires_distribution():
    with pytest.raises(ConfigurationError, match="distribution"):
        run_fpp_band(smoke("fpp-band", distribution={}))
    with pytest.raises(ConfigurationError, match="k_multiple"):
        run_fpp_band(smoke("fpp-band", k_multiple=0))


def test_decay_schedule_guards():
    with pytest.raises(ConfigurationError, match="increasing"):
        run_constraint_decay(smoke("constraint-decay", k_values=[20, 16]))
    with pytest.raises(ConfigurationError, match="at or above"):
        run_constraint_decay(smoke("constraint-decay", k_values=[8, 20]))


def test_decay_saturated_budget_has_zero_mismatch():
    cfg = smoke("constraint-decay", n=4, k_values=[4, 81], trials=30)
    report = run_constraint_decay(cfg)
    rows = report.table("decay").rows
    assert rows[-1][3] == 0  # saturated budget: same optimum on every trial
    assert report.passed


def test_fpp_variance_constant_hook_reports_degenerate(monkeypatch):
    # a block function: the same outcome for every trial of the block
    def constant(block, pspec, d, n, budgets):
        return [(1.0, 2.0, ((1.5, n),))] * block.count

    monkeypatch.setattr(exp_mod, "_lattice_trial", constant)
    cfg = smoke("fpp-variance", trials=10, workers=1)
    report = run_fpp_variance(cfg)
    degenerate = Verdict("variance_slope", "AC9", True, 0.0, 1.3, "degenerate: nonpositive variance, no fit")
    assert report.verdicts == (degenerate,)
    assert report.table("fit").rows == ()


def test_fpp_variance_guards():
    with pytest.raises(ConfigurationError):
        run_fpp_variance(smoke("fpp-variance", n_values=[16]))
    with pytest.raises(ConfigurationError, match="shape"):
        run_fpp_variance(
            smoke("fpp-variance", distribution={"kind": "pareto", "x_m": 1.0, "shape": 1.5})
        )


def test_oracle_suite_guards_and_subset():
    with pytest.raises(ConfigurationError, match="suite"):
        run_oracle_suite(smoke("oracle-suite", suite=[]))
    with pytest.raises(ConfigurationError, match="unknown suite"):
        run_oracle_suite(smoke("oracle-suite", suite=["spanning", "martingale"]))
    report = run_oracle_suite(
        smoke("oracle-suite", suite=["prufer"], suite_prufer_instances=3)
    )
    assert report.passed
    assert [r[0] for r in report.table("suite").rows] == ["kruskal_equals_prufer_enumeration"]


def test_spanning_part_catches_a_wrong_spanning_tree(monkeypatch):
    # Prim replaced by the star at vertex 0: the spanning part must see it,
    # which it cannot when its oracle runs the same Prim; like Prim, the
    # stub returns each tree's total, its weights added in key order
    def star(W):
        s, m, _ = W.shape
        lo, hi = np.zeros((s, m - 1), dtype=np.intp), np.broadcast_to(np.arange(1, m), (s, m - 1))
        return lo, hi, weights.sum_in_order(W[np.arange(s)[:, None], lo, hi].T)

    monkeypatch.setattr(trees, "_prim", star)
    report = run_oracle_suite(smoke("oracle-suite", suite=["spanning"], suite_tree_instances=20, workers=1))
    ((name, checks, mismatches),) = report.table("suite").rows
    assert (name, checks) == ("spanning_exact_equals_kruskal", 60)
    assert mismatches == 60 and not report.passed
    # the prufer part (AC2) runs the same trial at n = 7 on its own seeds
    report = run_oracle_suite(smoke("oracle-suite", suite=["prufer"], suite_prufer_instances=10, workers=1))
    ((name, checks, mismatches),) = report.table("suite").rows
    assert (name, checks) == ("kruskal_equals_prufer_enumeration", 10)
    assert mismatches == 10 and not report.passed


def test_sandwich_part_scans_each_block_once_per_gamma(monkeypatch):
    # the light-edge count depends on gamma alone, so one scan of the block
    # per suite gamma serves every tau
    scans = []
    count = trees.light_edge_count

    def recording_count(inst, gamma):
        scans.append((inst.ctx.count, gamma))
        return count(inst, gamma)

    monkeypatch.setattr(trees, "light_edge_count", recording_count)
    monkeypatch.setattr(exp_mod, "light_edge_count", recording_count)
    gammas = (0.5, 1.0, 2.0)
    out = exp_mod._tree_oracle_trial(SeedContext(5, 0, 4), TreeWeightSpec(alpha=0.5), 6, ("sandwich",), gammas)
    assert scans == [(4, g) for g in gammas]
    assert out == [(0, 0)] * 4


def test_verdicts_map_to_criteria():
    small = {
        "tree-variance": {"trials": 100},
        "oracle-suite": {"suite_tree_instances": 2, "suite_prufer_instances": 2, "suite_lattice_instances": 2},
    }
    for name in GOLDEN_DIGESTS:
        overrides = small[name] if name in small else {"trials": min(SMOKE_CONFIGS[name]["trials"], 10)}
        report = run_experiment(smoke(name, **overrides))
        for v in report.verdicts:
            assert v.criterion in {f"AC{i}" for i in range(1, 12)}


@pytest.mark.parametrize("name", sorted(DRIVER_FIELDS))
def test_driver_rejects_a_field_it_does_not_read(name, monkeypatch):
    # the check runs before the driver: no trial may start
    monkeypatch.setitem(exp_mod.DRIVERS, name, lambda cfg: pytest.fail("driver ran"))
    cfg = smoke(name)
    reads = {"experiment", "master_seed", "workers", *DRIVER_FIELDS[name]}
    ignored = [f.name for f in dataclasses.fields(cfg) if f.name not in reads]
    assert ignored
    for field_name in ignored:
        with pytest.raises(ConfigurationError, match=f"'{field_name}'"):
            run_experiment(dataclasses.replace(cfg, **{field_name: object()}))


LAWS = (
    PassageTimeSpec("exponential", (1.0,)),
    PassageTimeSpec("uniform", (0.5, 1.5), param_range=(0.5, 2.0)),
    PassageTimeSpec("pareto", (1.0, 3.0), param_range=(0.5, 2.0)),
)


def _recorded_dp_passes(monkeypatch):
    """A list that fills with (first trial, trial count, budget) of every hop-DP pass."""
    passes, dp = [], lattice.hop_constrained_time

    def recording_dp(lat, n, k):
        passes.append((lat.ctx.trial_index, lat.ctx.count, k))
        return dp(lat, n, k)

    monkeypatch.setattr(lattice, "hop_constrained_time", recording_dp)
    return passes


@pytest.mark.parametrize("d,n,budgets", [(2, 4, (4, 5, 7, 10, 16)), (3, 3, (3, 4, 6, 9))])
@pytest.mark.parametrize("law", LAWS, ids=[law.kind for law in LAWS])
def test_lattice_trial_equals_the_solvers(law, d, n, budgets, monkeypatch):
    # an exponential block first runs the DP to the largest budget in (n, ceil(1.5n)]
    bound = max(k for k in budgets if n < k <= (3 * n + 1) // 2)
    head = budgets[: budgets.index(bound) + 1] if law.kind == "exponential" else ()
    shortcut = dp = 0
    block = SeedContext(41, 0, 6)
    expected, below = [], []
    for ctx in block.blocks(1):
        lat = LatticeSpec(d=d, spec=law, ctx=ctx)
        (free,) = unconstrained_time(lat, n)
        per_k = tuple((r.value, r.hop_count) for k in budgets for r in hop_constrained_time(lat, n, k))
        expected.append((free.value, *straight_path_time(lat, n), per_k))
        shortcut += sum(k >= free.hop_count for k in budgets)
        dp += sum(k < free.hop_count for k in budgets)
        below.append([k for k in budgets[len(head) :] if k < free.hop_count])
    assert shortcut and dp  # budgets on both sides of the witness's hop count
    assert any(below) and not all(below)  # trials with a second pass and trials without one
    # one block of 6, then blocks of 4 and 2: the same outcomes in trial order,
    # from one pass per block with a first pass, one pass on a context of one
    # per trial with a budget past it below its witness's hop count, and no other
    passes = _recorded_dp_passes(monkeypatch)
    for size in (6, 4):
        passes.clear()
        parts = block.blocks(size)
        assert [out for part in parts for out in _lattice_trial(part, law, d, n, budgets)] == expected
        runs = []
        for part in parts:
            runs += [(part.trial_index, part.count, bound)] if head else []
            runs += [(t, 1, below[t][-1]) for t in range(part.trial_index, part.trial_index + part.count) if below[t]]
        assert passes == runs, size


def test_constraint_decay_smoke_runs_three_block_passes_and_six_single_trial_passes(monkeypatch):
    # the first pass runs to k = 24 on blocks that together hold all 400
    # trials; the other 394 trials' budgets past it take T_n with no DP
    passes = _recorded_dp_passes(monkeypatch)
    run_constraint_decay(smoke("constraint-decay", workers=1))
    blocks = [count for _, count, k in passes if k == 24]
    singles = [(count, k) for _, count, k in passes if k != 24]
    assert len(blocks) == 3 and sum(blocks) == 400
    assert len(singles) == 6 and all(count == 1 and k in (32, 48) for count, k in singles)


def _dijkstra_limits(monkeypatch, cfg):
    """(T_n, straight-path time, Dijkstra limit) of every trial of a decay run.

    The limit is the one the lattice trial passes for that trial. Each of
    the trial's Dijkstra calls stops at half of it, widened by
    PATH_SUM_SLACK.
    """
    limits, stops, trials = {}, [], []
    certified, dijkstra = lattice._certified_dijkstra, lattice._csgraph_dijkstra

    def recording_certified(lat, n, limit):
        stops.clear()
        res = certified(lat, n, limit)
        assert set(stops) == {limit * (0.5 + lattice.PATH_SUM_SLACK)}
        limits[lat.ctx.trial_index] = limit
        return res

    def recording_dijkstra(graph, **kwargs):
        stops.append(kwargs["limit"])
        return dijkstra(graph, **kwargs)

    def recording_unconstrained(lat, n, *args):
        frees = unconstrained_time(lat, n, *args)
        for ctx, free, straight in zip(lat.ctx.blocks(1), frees, straight_path_time(lat, n)):
            trials.append((free.value, straight, limits[ctx.trial_index]))
        return frees

    monkeypatch.setattr(lattice, "_certified_dijkstra", recording_certified)
    monkeypatch.setattr(lattice, "_csgraph_dijkstra", recording_dijkstra)
    monkeypatch.setattr(exp_mod, "unconstrained_time", recording_unconstrained)
    run_constraint_decay(cfg)
    assert len(trials) == cfg.trials
    return trials


def test_exponential_decay_bounds_dijkstra_by_the_dp_label(monkeypatch):
    cfg = smoke("constraint-decay", n=8, k_values=[8, 10, 12, 16], trials=10, workers=1)
    trials = _dijkstra_limits(monkeypatch, cfg)
    assert all(t_n <= limit for t_n, _, limit in trials)
    assert any(limit < straight for _, straight, limit in trials)


def test_uniform_decay_keeps_the_straight_path_limit(monkeypatch):
    uniform = {"kind": "uniform", "a": 0.5, "b": 1.5}
    cfg = smoke("constraint-decay", n=8, k_values=[8, 10, 12, 16], trials=10, workers=1, distribution=uniform)
    trials = _dijkstra_limits(monkeypatch, cfg)
    assert all(limit == straight for _, straight, limit in trials)
