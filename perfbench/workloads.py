"""The benchmark's workloads: pinned configs, default seeds and report digests.

Each workload is one config for the public driver entry
``experiments.run_experiment(ExperimentConfig.from_dict(cfg))``. The seed
argument of the benchmark replaces ``master_seed``; nothing else changes, so
the work done per run depends on the seed only through the random weights.

``digest`` is the sha256 of ``json.dumps(cli.report_document(report),
indent=2, sort_keys=True)`` at the default seed, the same digest
``tests/test_experiments.py`` pins for the smoke configs. It is checked only
when the benchmark runs at the default seed.
"""

from __future__ import annotations

from dataclasses import dataclass

EXPONENTIAL = {"kind": "exponential", "rate": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed: int
    config: dict
    digest: str

    def config_for(self, seed: int, workers: int) -> dict:
        """The config the program receives: the pinned one under ``seed``."""
        return dict(self.config, master_seed=seed, workers=workers)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="yj-prefix",
            why="a thousand tiny yj trials: per-trial Python cost and pool dispatch, large-n kernels bypassed",
            seed=2,
            config={
                "experiment": "yj-moments",
                "trials": 200,
                "alpha_values": [0.5],
                "n": 512,
                "j_values": [1, 128, 256, 384, 448],
            },
            digest="380d23eb4cd71790e419ab3b26376852d2197d3dcf53788f9d5ab48b51c84501",
        ),
        Workload(
            name="lattice-decay",
            why="hop-constrained DP with certificate retries plus certified Dijkstra; tree code idle",
            seed=8,
            config={
                "experiment": "constraint-decay",
                "trials": 20,
                "n": 64,
                "k_values": [64, 72, 80, 96, 128],
                "distribution": EXPONENTIAL,
                "box_radius_factor": 1.5,
            },
            digest="0777a349ce16fe2f4b273a7530f1ecf8e6fdf34d0772704c01424136bf745084",
        ),
        Workload(
            name="oracle-selftest",
            why="exact oracles with many one-element kernel calls: guards against per-call overhead; serial",
            seed=1,
            config={
                "experiment": "oracle-suite",
                "suite_tree_instances": 25,
                "suite_prufer_instances": 15,
                "suite_lattice_instances": 50,
            },
            digest="a3a04779811ab5de8df4b6be6f852141d117c905ea139388d653b906a14ab7bd",
        ),
    )
}


def working_set(workload: Workload) -> dict:
    """Computed bytes of the largest instance's dominant arrays.

    These are sizes derived from the config, not measurements: they place
    each workload against the cache sizes the environment record reports.
    """
    cfg = workload.config
    kind = cfg["experiment"]
    if kind == "yj-moments":
        n = cfg["n"]
        return {
            "bytes": 5 * 8 * n,
            "what": f"one weights_from_vertex row at n={n}: targets, lo, hi, hash, weight, 5 x 8 B x n",
        }
    if kind == "constraint-decay":
        n, d = cfg["n"], cfg.get("d", 2)
        side = 4 * n + 1  # unconstrained_time starts at radius 2n
        nodes = side**d
        arcs = 2 * d * side ** (d - 1) * (side - 1)
        return {
            "bytes": 12 * arcs + 4 * (nodes + 1) + 12 * nodes,
            "what": f"Dijkstra CSR at radius {2 * n}: {arcs} arcs x (8 B data + 4 B index),"
            f" indptr, distances and predecessors over {nodes} nodes",
        }
    if kind == "oracle-suite":
        trees = 7**5  # Pruefer enumeration at n = 7
        return {
            "bytes": trees * 6 * (2 * 8 + 8),
            "what": f"Pruefer enumeration at n=7: {trees} trees x 6 edges x (two int64 ends + float64 weight)",
        }
    raise ValueError(f"no working-set formula for {kind!r}")
