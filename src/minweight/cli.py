"""Command-line surface: parse a JSON config, dispatch a driver, emit reports.

Exit codes: 0 when every verdict passes, 2 when any verdict fails, 1 on
usage, configuration and I/O errors and on exceeded enumeration budgets. Reports
are emitted as CSV (one file per table, 17-significant-digit floats) and/or
a single JSON document; emitted bytes depend only on the effective
configuration, never on wall-clock time or worker scheduling, so identical
runs produce identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import CapacityError, ConfigurationError
from .experiments import DRIVER_FIELDS, DRIVERS, ExperimentConfig, ExperimentReport, Table, Verdict, run_experiment

ENV_OUTPUT_DIR = "MINWEIGHT_OUTPUT_DIR"

# The experiment each subcommand runs.
SUBCOMMANDS = {**{name: name for name in DRIVERS}, "selftest": "oracle-suite"}

# Built-in smoke configurations, used when no --config file is given. They
# are small enough to run in seconds and double as the frozen-golden runs of
# the test suite.
SMOKE_CONFIGS = {
    "tree-scaling": {
        "experiment": "tree-scaling",
        "master_seed": 1,
        "trials": 10,
        "alpha_values": [0.5],
        "n_values": [64, 128],
    },
    "tree-variance": {
        "experiment": "tree-variance",
        "master_seed": 1,
        "trials": 200,
        "alpha_values": [0.5],
        "n_values": [256],
    },
    "yj-moments": {
        "experiment": "yj-moments",
        "master_seed": 2,
        "trials": 2000,
        "alpha_values": [0.5],
        "n": 512,
        "j_values": [1, 128, 256, 384, 448],
    },
    "fpp-band": {
        "experiment": "fpp-band",
        "master_seed": 4,
        "trials": 50,
        "n_values": [16, 32],
        "distribution": {"kind": "exponential", "rate": 1.0},
        "box_radius_factor": 1.5,
    },
    "constraint-decay": {
        "experiment": "constraint-decay",
        "master_seed": 6,
        "trials": 400,
        "n": 16,
        "k_values": [16, 20, 24, 32, 48],
        "distribution": {"kind": "exponential", "rate": 1.0},
        "box_radius_factor": 1.5,
    },
    "fpp-variance": {
        "experiment": "fpp-variance",
        "master_seed": 8,
        "trials": 300,
        "n_values": [16, 32, 64],
        "distribution": {"kind": "exponential", "rate": 1.0},
        "box_radius_factor": 1.5,
    },
    "oracle-suite": {
        "experiment": "oracle-suite",
        "master_seed": 1,
        "suite_tree_instances": 20,
        "suite_prufer_instances": 10,
        "suite_lattice_instances": 30,
    },
}


def _format_cell(value) -> str:
    """One CSV cell; a comma inside a string becomes ";" so that it cannot split the row."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value).replace(",", ";")


def report_document(report: ExperimentReport) -> dict:
    """JSON document for a report.

    Wall-clock runtime is deliberately left out: emitted bytes must be
    identical across reruns of the same configuration. Runtime goes to the
    console instead.
    """
    return {
        "experiment": report.experiment,
        "tool_version": report.tool_version,
        "mixer_version": report.mixer_version,
        "config": report.config,
        "tables": {
            t.name: {"columns": list(t.columns), "rows": [list(r) for r in t.rows]}
            for t in report.tables
        },
        "verdicts": [dataclasses.asdict(v) for v in report.verdicts],
    }


def emit_report(report: ExperimentReport, fmt: str, directory) -> list:
    """Write the report; returns the written paths in deterministic order."""
    if fmt not in ("csv", "json", "both"):
        raise ConfigurationError(f"unknown format {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    if fmt in ("json", "both"):
        doc = report_document(report)
        path = directory / f"{report.experiment}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    if fmt in ("csv", "both"):
        columns = tuple(f.name for f in dataclasses.fields(Verdict))
        verdicts = Table("verdicts", columns, tuple(dataclasses.astuple(v) for v in report.verdicts))
        for table in (*report.tables, verdicts):
            path = directory / f"{report.experiment}_{table.name}.csv"
            lines = [",".join(table.columns)]
            for row in table.rows:
                lines.append(",".join(_format_cell(c) for c in row))
            path.write_text("\n".join(lines) + "\n")
            paths.append(path)
    return sorted(paths)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minweight",
        description="Monte Carlo experiments for edge-constrained minimum-weight graphs",
    )
    parser.add_argument("--version", action="version", version=f"minweight {__version__}")
    sub = parser.add_subparsers(dest="subcommand")
    for name, experiment in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {experiment} experiment")
        p.add_argument("--config", help="JSON config file (defaults to the built-in smoke config)")
        p.add_argument("--seed", type=int, help="override master_seed")
        if "trials" in DRIVER_FIELDS[experiment]:
            p.add_argument("--trials", type=int, help="override trials per point")
        p.add_argument("--workers", type=int, help="override worker count")
        p.add_argument("--output-dir", help="report directory (default ./reports)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    return parser


def _load_config(args) -> ExperimentConfig:
    name = SUBCOMMANDS[args.subcommand]
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {path} must contain a JSON object")
        raw.setdefault("experiment", name)
        if raw["experiment"] != name:
            raise ConfigurationError(
                f"config key 'experiment' is {raw['experiment']!r} but the "
                f"subcommand is {name!r}"
            )
    else:
        raw = dict(SMOKE_CONFIGS[name]) if name in SMOKE_CONFIGS else {"experiment": name}
    # flag overrides win over config-file values
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        raw["trials"] = args.trials
    if args.workers is not None:
        raw["workers"] = args.workers
    return ExperimentConfig.from_dict(raw)


def _output_dir(args) -> str:
    if args.output_dir:
        return args.output_dir
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return env
    return "reports"


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        report = run_experiment(cfg)
        paths = emit_report(report, args.format, _output_dir(args))
    except (ConfigurationError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.criterion} {v.name}: measured {v.measured:.6g} vs {v.threshold:.6g} {v.note}")
    for p in paths:
        print(f"wrote {p}")
    print(f"runtime: {report.runtime_seconds:.2f}s")
    return 0 if report.passed else 2


def main() -> None:
    raise SystemExit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
