"""Quick self-check of the benchmark harness; runs in a few seconds.

Usage: python3 perfbench/selfcheck.py

Runs every workload kind at toy size, untraced and then traced, and checks
that:
- the traced report files are byte-identical to the untraced ones;
- every wrapped attribute is the original function again afterwards;
- the traced run recorded the layers its kind exercises, and every span
  lies inside its parent;
- a forked report sample agrees with the in-process report;
- the metric and workload names the benchmark prints match BENCHMARK.json.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import importlib
import json
import sys

import report
from run import END_TO_END, OUT, PER_LAYER, ROOT, report_sample
from tracer import LAYERS, Tracer
from workloads import EXPONENTIAL, WORKLOADS

# kind -> (toy config, layers the kind must exercise)
TOY = {
    "tree-scaling": (
        {"experiment": "tree-scaling", "master_seed": 3, "trials": 2, "n_values": [8, 16]},
        ("trees.kruskal_mst", "trees.greedy_spanning_path", "weights.weight_matrix", "rng.hash_words_vec"),
    ),
    "yj-moments": (
        {"experiment": "yj-moments", "master_seed": 3, "trials": 10, "n": 32, "j_values": [1, 8]},
        ("trees.sample_yj", "weights.weights_from_vertex", "stats.summarize"),
    ),
    "constraint-decay": (
        {
            "experiment": "constraint-decay",
            "master_seed": 3,
            "trials": 5,
            "n": 4,
            "k_values": [4, 6, 8],
            "distribution": EXPONENTIAL,
            "box_radius_factor": 1.5,
        },
        (
            "lattice.unconstrained_time",
            "lattice.hop_constrained_certified",
            "lattice.hop_constrained_time",
            "scipy.dijkstra",
            "scipy.csr_matrix",
            "weights.passage_time_grid",
        ),
    ),
    "oracle-suite": (
        {
            "experiment": "oracle-suite",
            "master_seed": 3,
            "suite_tree_instances": 2,
            "suite_prufer_instances": 1,
            "suite_lattice_instances": 2,
        },
        ("trees.exact_min_tree", "trees.prufer_mst_weight", "lattice.enumerate_paths_oracle"),
    ),
}


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"selfcheck FAILED: {message}")
        sys.exit(1)


def wrapped_attributes() -> dict:
    found = {}
    for layer in LAYERS:
        for site in layer.sites:
            module_name, attr = site.split(":")
            found[site] = getattr(importlib.import_module(module_name), attr)
    return found


def check_spans(tracer: Tracer, kind: str) -> None:
    for index, (name, start, end, parent, *_) in enumerate(tracer.spans):
        check(start <= end, f"{kind}: span {index} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, *_ = tracer.spans[parent]
            check(parent < index, f"{kind}: span {index} ({name}) precedes its parent")
            check(p_start <= start and end <= p_end, f"{kind}: span {index} ({name}) outside its parent")


def check_toy(kind: str, config: dict, layers) -> None:
    originals = wrapped_attributes()
    plain = report.run_report(config, OUT / "selfcheck-plain")
    check(plain["error"] is None, f"{kind}: untraced report raised {plain['error']}")
    tracer = Tracer()
    traced = report.run_report(config, OUT / "selfcheck-traced", tracer)
    check(traced["error"] is None, f"{kind}: traced report raised {traced['error']}")
    check(traced["files_sha256"] == plain["files_sha256"], f"{kind}: traced report differs from untraced")
    for site, original in wrapped_attributes().items():
        check(original is originals[site], f"{kind}: {site} was not restored after the traced run")
    check(not tracer.missing, f"{kind}: wrap sites missing: {tracer.missing}")
    metrics = tracer.metrics()
    for layer in layers:
        check(metrics[f"{layer}.calls"] > 0, f"{kind}: no span recorded for {layer}")
    check(tracer.spans[0][0] == "experiments", f"{kind}: the driver is not the first span")
    check_spans(tracer, kind)
    print(f"selfcheck {kind}: traced == untraced, wrappers restored, {len(tracer.spans)} spans")


def check_forked_sample() -> None:
    config, _ = TOY["yj-moments"]
    in_process = report.run_report(config, OUT / "selfcheck-plain")
    forked = report_sample(report, config)
    check(forked.get("error") is None, f"forked sample failed: {forked.get('error')}")
    check(forked["files_sha256"] == in_process["files_sha256"], "forked sample differs from in-process report")
    check(forked["peak_rss_mib"] > 0, "forked sample reported no peak RSS")
    print("selfcheck forked sample: matches the in-process report")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == dict(END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == dict(PER_LAYER), "BENCHMARK.json per_layer differs from run.PER_LAYER")
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    check(declared == {w.name: w.why for w in WORKLOADS.values()}, "BENCHMARK.json workloads differ")
    kinds = {w.config["experiment"] for w in WORKLOADS.values()}
    check(kinds <= set(TOY), f"workload kinds without a toy config: {sorted(kinds - set(TOY))}")
    print("selfcheck BENCHMARK.json: metric and workload names match")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for kind, (config, layers) in TOY.items():
        check_toy(kind, config, layers)
    check_forked_sample()
    check_benchmark_json()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
