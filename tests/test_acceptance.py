"""Acceptance gate: one test per criterion, at the stated scale and tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to stream
them). Criteria are labelled AC1..AC11; every experiment verdict carries the
criterion it implements. Master seeds are pinned: all numbers below are
deterministic.
"""

import math
import time


from minweight.cli import SMOKE_CONFIGS, emit_report
from minweight.experiments import (
    ExperimentConfig,
    run_constraint_decay,
    run_experiment,
    run_fpp_band,
    run_fpp_variance,
    run_oracle_suite,
    run_tree_scaling,
    run_tree_variance,
    run_yj_moments,
)
from minweight.lattice import LatticeSpec, linear_path_tail_probe
from minweight.weights import PassageTimeSpec, SeedContext

WORKERS = 2  # matches the sandbox core count; results are worker-independent


def report_line(criterion, passed, elapsed, budget_s, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} ({elapsed:.1f}s < {budget_s:.0f}s) {detail}")


def run_timed(criterion, budget_s, fn):
    t0 = time.time()
    result = fn()
    elapsed = time.time() - t0
    return result, elapsed


def check_verdicts(criterion, budget_s, report, elapsed):
    detail = "; ".join(
        f"{v.name}={v.measured:.6g} (thr {v.threshold:g})" for v in report.verdicts
    )
    passed = report.passed and elapsed < budget_s
    report_line(criterion, passed, elapsed, budget_s, detail)
    assert report.passed, detail
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget"


def test_ac1_tree_oracle_equivalence():
    cfg = ExperimentConfig(
        experiment="oracle-suite",
        master_seed=1,
        suite=("spanning", "sandwich"),
        suite_tree_instances=100,
    )
    report, elapsed = run_timed("AC1", 60, lambda: run_oracle_suite(cfg))
    check_verdicts("AC1", 60, report, elapsed)
    counts = {r[0]: r[1] for r in report.table("suite").rows}
    assert counts["spanning_exact_equals_kruskal"] == 300  # 100 instances x n in {5,6,7}


def test_ac2_mst_prufer_equivalence():
    cfg = ExperimentConfig(
        experiment="oracle-suite",
        master_seed=1,
        suite=("prufer",),
        suite_prufer_instances=50,
    )
    report, elapsed = run_timed("AC2", 60, lambda: run_oracle_suite(cfg))
    check_verdicts("AC2", 60, report, elapsed)
    assert report.table("suite").rows[0][1] == 50


def test_ac3_lattice_oracle_equivalence():
    cfg = ExperimentConfig(
        experiment="oracle-suite",
        master_seed=1,
        suite=("lattice",),
        suite_lattice_instances=200,
    )
    report, elapsed = run_timed("AC3", 60, lambda: run_oracle_suite(cfg))
    check_verdicts("AC3", 60, report, elapsed)
    # 200 seeds x n in {1,2,3} x (5 budgets + 1 infeasibility check)
    assert report.table("suite").rows[0][1] == 200 * 3 * 6


def test_ac4_tree_scaling_slopes():
    t0 = time.time()
    reports = []
    for het, m_min in ((False, 1.0), (True, 0.5)):
        cfg = ExperimentConfig(
            experiment="tree-scaling",
            master_seed=11,
            trials=100,
            workers=WORKERS,
            alpha_values=(0.3, 0.5, 0.7),
            n_values=(64, 128, 256, 512, 1024),
            m_min=m_min,
            heterogeneous=het,
        )
        reports.append(run_tree_scaling(cfg))
    elapsed = time.time() - t0
    passed = all(r.passed for r in reports)
    slopes = [f"{v.measured:.4f}" for r in reports for v in r.verdicts if "slope" in v.name]
    report_line("AC4", passed and elapsed < 600, elapsed, 600, f"slopes {slopes}")
    assert passed
    assert elapsed < 600


def test_ac5_tree_variance_bound():
    cfg = ExperimentConfig(
        experiment="tree-variance",
        master_seed=5,
        trials=200,
        workers=WORKERS,
        alpha_values=(0.5,),
        n_values=(256, 1024),
    )
    report, elapsed = run_timed("AC5", 300, lambda: run_tree_variance(cfg))
    check_verdicts("AC5", 300, report, elapsed)


def test_ac6_nearest_edge_moment_band():
    cfg = ExperimentConfig(
        experiment="yj-moments",
        master_seed=2,
        trials=2000,
        workers=WORKERS,
        alpha_values=(0.5,),
        n=512,
        j_values=(1, 128, 256, 384, 448),
    )
    report, elapsed = run_timed("AC6", 120, lambda: run_yj_moments(cfg))
    check_verdicts("AC6", 120, report, elapsed)


def test_ac7_fpp_band():
    t0 = time.time()
    reports = []
    for dist in (
        {"kind": "exponential", "rate": 1.0},
        {"kind": "exponential", "rate": 1.0, "param_range": [1.0, 2.0]},
    ):
        cfg = ExperimentConfig(
            experiment="fpp-band",
            master_seed=7,
            trials=200,
            workers=WORKERS,
            n_values=(16, 32, 64),
            k_multiple=3,
            distribution=dist,
            box_radius_factor=1.5,
        )
        reports.append(run_fpp_band(cfg))
    elapsed = time.time() - t0
    passed = all(r.passed for r in reports)
    details = "; ".join(
        f"{v.name}={v.measured:.4g}" for r in reports for v in r.verdicts
    )
    report_line("AC7", passed and elapsed < 600, elapsed, 600, details)
    for r in reports:
        assert r.passed, [v for v in r.verdicts if not v.passed]
    assert elapsed < 600


def test_ac8_constraint_decay():
    cfg = ExperimentConfig(
        experiment="constraint-decay",
        master_seed=8,
        trials=400,
        workers=WORKERS,
        n=32,
        k_values=(32, 40, 48, 64, 96),
        distribution={"kind": "exponential", "rate": 1.0},
        box_radius_factor=1.5,
    )
    report, elapsed = run_timed("AC8", 600, lambda: run_constraint_decay(cfg))
    check_verdicts("AC8", 600, report, elapsed)
    points = [r[4] for r in report.table("decay").rows]
    assert all(b <= a for a, b in zip(points, points[1:]))  # realized monotone decay


def test_ac9_fpp_variance_slopes():
    t0 = time.time()
    reports = []
    for dist in (
        {"kind": "uniform", "a": 0.5, "b": 1.5},
        {"kind": "exponential", "rate": 1.0},
        {"kind": "pareto", "x_m": 1.0, "shape": 3.0},
    ):
        cfg = ExperimentConfig(
            experiment="fpp-variance",
            master_seed=9,
            trials=300,
            workers=WORKERS,
            n_values=(16, 32, 64, 128),
            k_multiple=3,
            distribution=dist,
            box_radius_factor=1.5,
        )
        reports.append(run_fpp_variance(cfg))
    elapsed = time.time() - t0
    passed = all(r.passed for r in reports)
    slopes = {r.table("variance").rows[0][0]: f"{r.verdicts[0].measured:.4f}" for r in reports}
    report_line("AC9", passed and elapsed < 900, elapsed, 900, f"variance slopes {slopes}")
    for r in reports:
        assert r.passed
    assert elapsed < 900


def test_ac10_path_tail_probe():
    from scipy.special import gammainc

    t0 = time.time()
    lat = LatticeSpec(d=2, spec=PassageTimeSpec("exponential", (1.0,)), ctx=SeedContext(10, 0, 1_000_000))
    est = linear_path_tail_probe(lat, m=10, beta=0.1)
    elapsed = time.time() - t0
    analytic = float(gammainc(10, 1.0))
    bound = math.exp(-2 * 10)  # e^{-dm} at d = 2, m = 10
    in_interval = est.wilson_low <= analytic <= est.wilson_high
    below_bound = est.point <= bound
    passed = in_interval and below_bound and elapsed < 60
    report_line(
        "AC10",
        passed,
        elapsed,
        60,
        f"point={est.point:g} wilson=[{est.wilson_low:g},{est.wilson_high:g}] "
        f"analytic={analytic:g} bound={bound:g}",
    )
    assert in_interval
    assert below_bound
    assert elapsed < 60


def test_ac11_byte_determinism(tmp_path):
    t0 = time.time()
    identical = True
    for name in ("tree-scaling", "constraint-decay"):
        outputs = []
        for run, workers in (("r1", 1), ("r2", 1), ("r8", 8)):
            raw = dict(SMOKE_CONFIGS[name])
            raw["workers"] = workers
            report = run_experiment(ExperimentConfig.from_dict(raw))
            out = tmp_path / name / run
            paths = emit_report(report, "both", out)
            outputs.append({p.name: p.read_bytes() for p in paths})
        assert outputs[0].keys() == outputs[1].keys() == outputs[2].keys()
        for fname in outputs[0]:
            same = outputs[0][fname] == outputs[1][fname] == outputs[2][fname]
            identical = identical and same
            assert same, f"{name}/{fname} differs across reruns or worker counts"
    elapsed = time.time() - t0
    report_line("AC11", identical, elapsed, 120, "reruns and worker counts 1 vs 8, CSV+JSON")
    assert identical
