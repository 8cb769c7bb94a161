import hashlib
import json

import pytest

import minweight.experiments as exp_mod
from minweight.cli import SMOKE_CONFIGS, report_document
from minweight.errors import ConfigurationError
from minweight.experiments import (
    ExperimentConfig,
    _random_prefix,
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


def test_worker_count_does_not_change_report():
    base = run_experiment(smoke("tree-scaling"))
    pooled = run_experiment(smoke("tree-scaling", workers=2))
    assert report_document(base) == report_document(pooled)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="bogus"):
        ExperimentConfig.from_dict({"experiment": "tree-scaling", "bogus": 1})
    with pytest.raises(ConfigurationError, match="experiment"):
        ExperimentConfig.from_dict({"trials": 5})
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_passage_spec_from_config():
    spec = passage_spec_from_config({"kind": "uniform", "a": 0.5, "b": 1.5})
    assert spec.params == (0.5, 1.5)
    with pytest.raises(ConfigurationError, match="kind"):
        passage_spec_from_config({"kind": "gamma"})
    with pytest.raises(ConfigurationError):
        passage_spec_from_config({})
    with pytest.raises(ConfigurationError, match="shape"):
        passage_spec_from_config({"kind": "pareto", "x_m": 1.0, "shape": 1.5})
    with pytest.raises(ConfigurationError, match="scale_x"):
        passage_spec_from_config({"kind": "exponential", "scale_x": 2})


def test_tree_scaling_fit_identity_hook(monkeypatch):
    # trial args: alpha, m_min, het, master, gtrial, n_vertices, tau, gamma
    monkeypatch.setattr(exp_mod, "_tree_scaling_trial", lambda *a: (3.0 * a[5] ** 0.5, 0.0, 0.0, True))
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
    monkeypatch.setattr(exp_mod, "_tree_variance_trial", lambda *a: 7.25)
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


def test_random_prefix_distinct_and_deterministic():
    p1 = _random_prefix(3, 17, 100, 12)
    p2 = _random_prefix(3, 17, 100, 12)
    assert p1 == p2
    assert len(set(p1)) == 12
    assert all(1 <= v <= 100 for v in p1)
    assert _random_prefix(3, 18, 100, 12) != p1


def test_fpp_band_single_n_flags_insufficient_sweep():
    report = run_fpp_band(smoke("fpp-band", n_values=[16], trials=5))
    stab = [v for v in report.verdicts if v.name == "mean_stabilization"][0]
    assert stab.passed and "insufficient" in stab.note


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
    monkeypatch.setattr(exp_mod, "_fpp_variance_trial", lambda *a: 1.5)
    cfg = smoke("fpp-variance", trials=10, workers=1)
    report = run_fpp_variance(cfg)
    verdict = report.verdicts[0]
    assert verdict.passed and "degenerate" in verdict.note
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


def test_verdicts_map_to_criteria():
    for name in GOLDEN_DIGESTS:
        report = run_experiment(smoke(name, trials=min(SMOKE_CONFIGS[name].get("trials", 10), 10),
                                      suite_tree_instances=2, suite_prufer_instances=2,
                                      suite_lattice_instances=2)
                                if name != "tree-variance" else smoke(name, trials=100))
        for v in report.verdicts:
            assert v.criterion in {f"AC{i}" for i in range(1, 12)}


def test_tau_rule():
    cfg = smoke("tree-scaling")
    assert cfg.tau_for(100) == 99
    cfg2 = smoke("tree-scaling", rho=0.5)
    assert cfg2.tau_for(100) == 50
    with pytest.raises(ConfigurationError):
        smoke("tree-scaling", rho=1.5).tau_for(100)
