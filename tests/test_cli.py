import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import minweight
import minweight.experiments as exp_mod

from minweight.cli import SMOKE_CONFIGS, emit_report, parse_and_dispatch, report_document
from minweight.experiments import ExperimentConfig, ExperimentReport, Table, Verdict, run_experiment


def tiny_report(verdicts=()):
    return ExperimentReport(
        experiment="tree-scaling",
        config={"experiment": "tree-scaling", "master_seed": 1},
        tables=(
            Table("summary", ("n", "value"), ((64, 0.123456789012345678), (128, 2.0))),
        ),
        verdicts=tuple(verdicts),
        runtime_seconds=1.23,
        tool_version="0.1.0",
        mixer_version="splitmix64-absorb/v1",
    )


def test_no_arguments_is_usage_error(capsys):
    assert parse_and_dispatch([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert parse_and_dispatch(["frobnicate"]) == 1


def test_missing_config_mentions_path(capsys):
    code = parse_and_dispatch(["tree-scaling", "--config", "missing.json"])
    assert code == 1
    assert "missing.json" in capsys.readouterr().err


def test_malformed_config_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "tree-scaling", "wat": 1}))
    code = parse_and_dispatch(["tree-scaling", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 1
    assert "wat" in capsys.readouterr().err


def test_config_experiment_must_match_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fpp-band"}))
    assert parse_and_dispatch(["tree-scaling", "--config", str(cfg)]) == 1


def test_selftest_passes(tmp_path, capsys):
    code = parse_and_dispatch(
        [
            "selftest",
            "--output-dir",
            str(tmp_path),
            "--config",
            str(_suite_config(tmp_path)),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert (tmp_path / "oracle-suite.json").exists()


def test_selftest_default_config(tmp_path):
    assert parse_and_dispatch(["selftest", "--output-dir", str(tmp_path), "--format", "json"]) == 0


def test_selftest_rejects_the_trials_flag(tmp_path, capsys):
    # the oracle suite sizes its parts by the suite_*_instances keys, not by
    # trials, so its subcommands offer no --trials flag
    for subcommand in ("selftest", "oracle-suite"):
        assert parse_and_dispatch([subcommand, "--trials", "5", "--output-dir", str(tmp_path)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "oracle-suite.json").exists()


def _suite_config(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "oracle-suite",
                "master_seed": 1,
                "suite_tree_instances": 3,
                "suite_prufer_instances": 2,
                "suite_lattice_instances": 3,
            }
        )
    )
    return path


def test_smoke_run_writes_both_formats(tmp_path):
    code = parse_and_dispatch(
        ["tree-scaling", "--output-dir", str(tmp_path), "--format", "both", "--trials", "4"]
    )
    assert code in (0, 2)  # slope verdicts are statistical at 4 trials
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "tree-scaling.json",
        "tree-scaling_fits.csv",
        "tree-scaling_summary.csv",
        "tree-scaling_verdicts.csv",
    ]
    doc = json.loads((tmp_path / "tree-scaling.json").read_text())
    assert doc["config"]["trials"] == 4  # flag override echoed
    assert doc["mixer_version"] == "splitmix64-absorb/v1"
    assert "runtime" not in json.dumps(doc)


def test_byte_identical_reruns_and_worker_counts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for out, workers in ((a, "1"), (b, "1"), (c, "2")):
        code = parse_and_dispatch(
            [
                "fpp-band",
                "--output-dir",
                str(out),
                "--trials",
                "6",
                "--workers",
                workers,
                "--format",
                "both",
            ]
        )
        assert code == 0
    for name in ("fpp-band_band.csv", "fpp-band_verdicts.csv", "fpp-band.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() == (c / name).read_bytes()


# sha256 of every CSV file two smoke configs write. The JSON goldens of
# test_experiments.py do not cover the CSV writer: yj-moments has a verdict
# note with a comma, which a CSV cell writes as ";", and fpp-variance a
# string column.
GOLDEN_CSV_DIGESTS = {
    "yj-moments_moments.csv": "cfb1186e3eb38d13280a74f5737bbfc51c2e2778f7fc75bede21f5847cd3871f",
    "yj-moments_verdicts.csv": "77ef943f8cba88d00dd1da328d0030534eac7a766003a64e27a8a67a46c0899a",
    "fpp-variance_variance.csv": "c1ceedb487aa3f6191e82177737345650a13515577a05c591511744236fe1294",
    "fpp-variance_fit.csv": "66b23a9d47acfba9bb487121e7494410f581a235d6e8a6ba428c22751cb49578",
    "fpp-variance_verdicts.csv": "3deedc7a7c255ba31b1de98bb27e482d48d577bdf79e5624df436590717b2458",
}


def test_smoke_csv_goldens(tmp_path):
    for name in ("yj-moments", "fpp-variance"):
        assert parse_and_dispatch([name, "--output-dir", str(tmp_path), "--format", "csv"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == GOLDEN_CSV_DIGESTS


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MINWEIGHT_OUTPUT_DIR", str(tmp_path / "envdir"))
    code = parse_and_dispatch(["oracle-suite", "--config", str(_suite_config(tmp_path)), "--format", "json"])
    assert code == 0
    assert (tmp_path / "envdir" / "oracle-suite.json").exists()


def test_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MINWEIGHT_OUTPUT_DIR", str(tmp_path / "envdir"))
    code = parse_and_dispatch(
        [
            "oracle-suite",
            "--config",
            str(_suite_config(tmp_path)),
            "--output-dir",
            str(tmp_path / "flagdir"),
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert (tmp_path / "flagdir" / "oracle-suite.json").exists()
    assert not (tmp_path / "envdir").exists()


def test_failed_verdict_exit_code(tmp_path, monkeypatch):
    import minweight.experiments as exp_mod

    failing = tiny_report(
        [Verdict(name="x", criterion="AC4", passed=False, measured=1.0, threshold=0.0)]
    )
    monkeypatch.setitem(exp_mod.DRIVERS, "tree-scaling", lambda cfg: failing)
    code = parse_and_dispatch(["tree-scaling", "--output-dir", str(tmp_path)])
    assert code == 2


def test_emit_empty_verdicts_valid_files(tmp_path):
    paths = emit_report(tiny_report(), "both", tmp_path)
    assert len(paths) == 3
    verdict_lines = (tmp_path / "tree-scaling_verdicts.csv").read_text().splitlines()
    assert verdict_lines == ["name,criterion,passed,measured,threshold,note"]


def test_csv_numbers_round_trip(tmp_path):
    emit_report(tiny_report(), "csv", tmp_path)
    lines = (tmp_path / "tree-scaling_summary.csv").read_text().splitlines()
    header, row0, row1 = lines
    assert header == "n,value"
    n, value = row0.split(",")
    assert int(n) == 64
    assert float(value) == 0.123456789012345678
    assert float(row1.split(",")[1]) == 2.0


def test_json_numbers_round_trip(tmp_path):
    report = run_experiment(
        ExperimentConfig.from_dict(
            {
                "experiment": "oracle-suite",
                "suite": ["prufer"],
                "suite_prufer_instances": 2,
            }
        )
    )
    doc = report_document(report)
    again = json.loads(json.dumps(doc))
    assert again == json.loads(json.dumps(again))  # parse -> format -> parse fixed point


def test_emit_rejects_unknown_format(tmp_path):
    from minweight.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        emit_report(tiny_report(), "xml", tmp_path)


def _single_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    assert parse_and_dispatch(["tree-scaling", "--seed", "-1", "--output-dir", str(tmp_path)]) == 1
    assert "master_seed" in _single_error_line(capsys)


@pytest.mark.parametrize("seed", [2**64, "3", True, 1.0])
def test_config_master_seed_must_be_64_bit_int(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tree-scaling", "master_seed": seed}))
    code = parse_and_dispatch(["tree-scaling", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 1
    assert "master_seed" in _single_error_line(capsys)
    assert not (tmp_path / "tree-scaling.json").exists()


def test_capacity_error_exits_one(tmp_path, capsys, monkeypatch):
    import minweight.cli as cli_mod
    from minweight.errors import CapacityError

    def over_budget(cfg):
        raise CapacityError("enumeration would take 10 elementary steps, budget is 1")

    monkeypatch.setattr(cli_mod, "run_experiment", over_budget)
    assert parse_and_dispatch(["oracle-suite", "--output-dir", str(tmp_path)]) == 1
    assert "budget" in _single_error_line(capsys)


def test_lost_worker_exits_one_naming_the_driver(tmp_path, capsys, monkeypatch):
    # a worker that dies, as an out-of-memory kill ends one, breaks the pool;
    # _yj_block looks sample_yj up in the worker, so the patch reaches it
    parent = os.getpid()

    def killed(*args):
        if os.getpid() == parent:
            pytest.fail("the block ran in the parent")
        os._exit(3)

    monkeypatch.setattr(exp_mod, "sample_yj", killed)
    monkeypatch.setattr(exp_mod.os, "cpu_count", lambda: 2)
    code = parse_and_dispatch(["yj-moments", "--trials", "50", "--workers", "2", "--output-dir", str(tmp_path)])
    assert code == 1
    line = _single_error_line(capsys)
    assert "yj-moments" in line and "worker" in line
    assert not (tmp_path / "yj-moments.json").exists()


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8.00 GiB for an array")])
def test_memory_error_exits_one_naming_the_driver(tmp_path, capsys, monkeypatch, exc):
    import minweight.cli as cli_mod

    def out_of_memory(cfg):
        raise exc

    monkeypatch.setattr(cli_mod, "run_experiment", out_of_memory)
    assert parse_and_dispatch(["selftest", "--output-dir", str(tmp_path)]) == 1
    line = _single_error_line(capsys)
    assert "oracle-suite" in line and "memory" in line and str(exc) in line


def test_other_runtime_errors_still_raise(tmp_path, monkeypatch):
    import minweight.cli as cli_mod

    def bug(cfg):
        raise RuntimeError("a bug, not a resource failure")

    monkeypatch.setattr(cli_mod, "run_experiment", bug)
    with pytest.raises(RuntimeError, match="a bug"):
        parse_and_dispatch(["fpp-band", "--output-dir", str(tmp_path)])


@pytest.mark.parametrize(
    "key,value,needle",
    [
        ("trials", "3", "trials"),
        ("trials", True, "trials"),
        ("trials", 3.0, "trials"),
        ("workers", "2", "workers"),
        ("workers", 0, "workers"),
        ("workers", -3, "workers"),
        ("heterogeneous", "false", "heterogeneous"),
        ("heterogeneous", 0, "heterogeneous"),
    ],
)
def test_config_types_checked_on_entry(tmp_path, capsys, key, value, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tree-scaling", key: value}))
    code = parse_and_dispatch(["tree-scaling", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 1
    assert needle in _single_error_line(capsys)
    assert not (tmp_path / "tree-scaling.json").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_must_be_positive(tmp_path, capsys, workers):
    code = parse_and_dispatch(["tree-scaling", "--workers", workers, "--output-dir", str(tmp_path)])
    assert code == 1
    assert "workers" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "name,override,needle",
    [
        # wrong JSON types
        ("tree-scaling", {"m_min": "0.5"}, "m_min"),
        ("tree-scaling", {"n_values": [8.7, 16]}, "n_values"),
        ("tree-scaling", {"alpha_values": 0.5}, "alpha_values"),
        ("constraint-decay", {"k_values": [4.5, 6]}, "k_values"),
        ("yj-moments", {"n": "32"}, "n must"),
        ("fpp-band", {"d": 2.5}, "d must"),
        ("fpp-band", {"k_multiple": 2.5}, "k_multiple"),
        ("fpp-band", {"distribution": "exponential"}, "distribution"),
        ("oracle-suite", {"suite_prufer_instances": "2"}, "suite_prufer_instances"),
        # out-of-range values
        ("yj-moments", {"alpha_values": [1.5]}, "alpha"),
        ("oracle-suite", {"alpha_values": [1.5]}, "alpha"),
        ("tree-scaling", {"m_min": 0}, "m_min"),
        ("tree-variance", {"m_min": 0}, "m_min"),
        ("yj-moments", {"m_min": 0}, "m_min"),
        ("oracle-suite", {"m_min": 0}, "m_min"),
        ("tree-scaling", {"gamma": -1}, "gamma"),
        ("fpp-band", {"n_values": [0, 16]}, "n values"),
        ("fpp-variance", {"n_values": [-1, 16]}, "n values"),
        ("oracle-suite", {"suite_gammas": [0.5, -1]}, "gammas"),
        # distribution parameters
        ("fpp-band", {"distribution": {"kind": "exponential", "rate": "1"}}, "rate"),
        ("fpp-band", {"distribution": {"kind": "exponential", "rate": True}}, "rate"),
        ("fpp-band", {"distribution": {"kind": "uniform", "a": 0.5, "b": "1.5"}}, "'b'"),
        ("fpp-band", {"distribution": {"kind": "exponential", "param_range": [1.0]}}, "param_range"),
        ("fpp-band", {"distribution": {"kind": "exponential", "param_range": "12"}}, "param_range"),
        # oracle-suite instance counts below 1, which would compare nothing
        ("oracle-suite", {"suite_tree_instances": -3}, "suite_tree_instances"),
        ("oracle-suite", {"suite_prufer_instances": 0}, "suite_prufer_instances"),
        ("oracle-suite", {"suite_lattice_instances": 0}, "suite_lattice_instances"),
        (
            "oracle-suite",
            {"suite_tree_instances": -3, "suite_prufer_instances": 0, "suite_lattice_instances": 0},
            "must be at least 1",
        ),
        # repeated sweep values
        ("fpp-variance", {"trials": 2, "n_values": [4, 4]}, "n sweep must not repeat"),
        ("fpp-band", {"n_values": [16, 16]}, "n sweep must not repeat"),
        ("tree-scaling", {"alpha_values": [0.5, 0.5]}, "alpha sweep must not repeat"),
        # keys the driver does not read
        ("tree-scaling", {"k_values": [3]}, "k_values"),
        ("fpp-band", {"suite_gammas": [0.5]}, "suite_gammas"),
        # NaN and Infinity, which Python's json reads but which are not JSON numbers
        ("fpp-band", {"distribution": {"kind": "pareto", "x_m": float("nan"), "shape": 3}}, "x_m"),
        ("fpp-band", {"distribution": {"kind": "exponential", "rate": float("nan")}}, "rate"),
        ("fpp-band", {"distribution": {"kind": "exponential", "param_range": [1, float("inf")]}}, "param_range"),
        ("tree-scaling", {"gamma": float("inf")}, "gamma"),
        ("oracle-suite", {"suite_gammas": [float("-inf")]}, "suite_gammas"),
        # a Dijkstra box whose arc count overflows the int32 CSR indices
        ("fpp-band", {"trials": 1, "n_values": [1], "d": 8, "distribution": {"kind": "exponential"}}, "int32"),
        # distribution keys the chosen kind does not read
        ("fpp-band", {"distribution": {"kind": "uniform", "a": 0.5, "b": 1.5, "rate": 7.0}}, "does not read key 'rate'"),
        ("fpp-band", {"distribution": {"kind": "exponential", "x_m": -4}}, "does not read key 'x_m'"),
        ("fpp-band", {"distribution": {"kind": ["uniform"], "a": 0.5, "b": 1.5}}, "kind"),
        # repeated j and gamma values
        ("yj-moments", {"j_values": [8, 8]}, "j sweep must not repeat"),
        ("oracle-suite", {"suite_gammas": [0.5, 0.5]}, "suite gammas must not repeat"),
    ],
)
def test_malformed_config_exits_one_with_one_error_line(tmp_path, capsys, name, override, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMOKE_CONFIGS[name], **override}))
    code = parse_and_dispatch([name, "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 1
    assert needle in _single_error_line(capsys)  # one line, so no traceback
    assert not (tmp_path / f"{name}.json").exists()


@pytest.mark.parametrize(
    "name,override",
    [
        # a 1000000 x 1000000 weight matrix (7.28 TiB) after a small first point
        ("tree-scaling", {"trials": 1, "n_values": [2, 1_000_000]}),
        ("tree-variance", {"n_values": [100_000]}),
        # one yj block row of 2**27 vertices
        ("yj-moments", {"trials": 1, "n": 2**27, "j_values": [1]}),
        # the lattice family shares the budget: a 5.0 GB Dijkstra arc-time array
        # whose int32 indices still fit, and an 864 MB hop-DP label grid, both
        # checked before the sweep starts
        ("fpp-band", {"n_values": [5000]}),
        ("constraint-decay", {"n": 12000, "k_values": [12000, 18000]}),
        # d = 3: the first Dijkstra box [-133, 333] x [-133, 133]^2 has 1.6 GB
        # of arc times, although its int32 indices fit
        ("fpp-band", {"n_values": [200], "d": 3}),
    ],
)
def test_malformed_config_over_the_tree_array_budget_exits_one_before_allocating(
    tmp_path, capsys, monkeypatch, name, override
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMOKE_CONFIGS[name], **override}))
    # the check runs before the sweep, so a pooled run starts no process pool
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("pool started"))
    monkeypatch.setattr(exp_mod, "_sweep", lambda *a, **k: pytest.fail("sweep started"))
    for workers in ([], ["--workers", "2"]):
        tracemalloc.start()
        try:
            code = parse_and_dispatch([name, "--config", str(cfg), "--output-dir", str(tmp_path), *workers])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "budget" in _single_error_line(capsys)
        assert not (tmp_path / f"{name}.json").exists()
        assert peak < 2**20  # no trial ran and no weight array was allocated


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8", "output_below_file"])
def test_io_failure_exits_one_with_one_error_line(tmp_path, capsys, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tree-scaling", "trials": 2, "n_values": [8, 16]}))
    out = tmp_path / "reports"
    if case == "config_is_directory":
        cfg = tmp_path / "cfg_dir"
        cfg.mkdir()
    elif case == "config_not_utf8":
        cfg.write_bytes(b'{"experiment": "tree-scaling", "trials": 2, "n_values": [8], "\xff": 1}')
    else:
        (tmp_path / "blocker").write_text("")
        out = tmp_path / "blocker" / "reports"
    code = parse_and_dispatch(["tree-scaling", "--config", str(cfg), "--output-dir", str(out)])
    assert code == 1
    line = _single_error_line(capsys)  # one line, so no traceback
    assert str(cfg if case != "output_below_file" else out) in line


def _python(code, *args):
    """stdout lines of code run in a fresh interpreter that imports minweight from this tree."""
    src = os.path.dirname(os.path.dirname(minweight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs most of the start-up time; the chi-square quantile
    # comes from scipy.special instead
    assert _python("import sys, minweight.cli; print('scipy.stats' in sys.modules)") == ["False"]


def test_cli_import_defers_scipy_special_and_the_process_pool():
    # only tree-variance reads a chi-square quantile, only a pooled sweep
    # starts processes and only Dijkstra builds a sparse graph, so none of
    # these modules is loaded at import
    modules = "{'scipy.special', 'concurrent.futures.process', 'scipy.sparse'}"
    assert _python(f"import sys, minweight.cli; print(sorted({modules} & set(sys.modules)))") == ["[]"]


# Runs smoke configs in one interpreter and prints, after each, whether
# scipy.sparse is loaded. Its pool runs serially and prints whether
# scipy.sparse.csgraph was loaded when it opened, that is before a real
# pool would fork; cpu_count is raised so that workers = 2 opens one.
_SPARSE_PROBE = """
import concurrent.futures, os, sys
from minweight.cli import SMOKE_CONFIGS
from minweight.experiments import ExperimentConfig, run_experiment

class Pool:
    def __init__(self, max_workers):
        print("pool", "scipy.sparse.csgraph" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, *args):
        return map(fn, *args)

concurrent.futures.ProcessPoolExecutor = Pool
os.cpu_count = lambda: 2
for run in sys.argv[1:]:
    name, workers, trials = run.split(":")
    raw = {**SMOKE_CONFIGS[name], "workers": int(workers)}
    if trials:
        raw["trials"] = int(trials)
    run_experiment(ExperimentConfig.from_dict(raw))
    print(name, workers, "scipy.sparse" in sys.modules)
"""


def test_only_lattice_runs_load_scipy_sparse():
    # the tree drivers, yj-moments and the oracle suite never reach Dijkstra,
    # serial or pooled; the first lattice run loads scipy.sparse
    runs = ["tree-scaling:1:", "tree-variance:1:", "yj-moments:1:", "oracle-suite:1:"]
    runs += ["tree-scaling:2:", "yj-moments:2:50", "oracle-suite:2:", "constraint-decay:1:"]
    lines = _python(_SPARSE_PROBE, *runs)
    assert set(lines[:-1]) == {"pool False"} | {" ".join(run.split(":")[:2]) + " False" for run in runs[:-1]}
    assert lines[-1] == "constraint-decay 1 True"
    # a pooled lattice run loads it before the pool opens, so that forked
    # workers inherit it instead of each importing it
    assert _python(_SPARSE_PROBE, "constraint-decay:2:20") == ["pool True", "constraint-decay 2 True"]
