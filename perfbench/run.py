"""Outside-in benchmark of minweight's experiment drivers.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...

A report sample runs one workload config through
``experiments.run_experiment`` and emits the report with
``cli.emit_report``, as ``minweight <sub> --config`` does. Each sample is a
process forked from this one after it has imported minweight and before it
has run anything, so every report starts from the state of a fresh
``minweight`` process (empty caches, no pool) without paying the import
again. The import is measured on its own: a set-up sample is a fresh
interpreter that imports ``minweight.cli``.

Samples run one at a time until ``--seconds`` have passed; each metric is
the median over its samples.
--trace 0: reports at workers=1, with SETUP_SAMPLES set-up samples spread
evenly over the run. After every sample the calibration kernel of
``speed.py`` runs for a tenth of the sample's time; the run's median times
are rescaled by its mean to the kernel's reference speed, so most of the
machine's own speed drift cancels out of ``setup_s`` and ``report_s``.
Reports the end-to-end metrics.
--trace 1: rounds of a report at workers=1, one at workers=2 and a traced
one at workers=1. Reports the per-layer metrics of ``tracer.py``; the spans
of the last traced report are written to ``.perfbench_out/``.

Every report is checked: its verdicts must pass, its files must be
byte-identical to the first report of the run, and at the workload's
default seed its digest must equal the pinned one. A report that fails any
check, or raises, counts as one failed operation. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe
from tracer import COUNT_METRICS, RATES, RATIO_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS, working_set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# --trace 0: at least MIN_REPORTS reports and exactly SETUP_SAMPLES set-ups.
MIN_REPORTS = 3
SETUP_SAMPLES = 3
# --trace 1: at least MIN_ROUNDS rounds.
MIN_ROUNDS = 2
SAMPLE_TIMEOUT_S = 120
# Start no new sample after this many seconds, so a run ends well within 180 s.
ROUND_DEADLINE_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    tuple((name, "count") for name in COUNT_METRICS)
    + tuple((name, "ratio") for name in RATIO_METRICS)
    + tuple((name, "ms" if name.endswith("_ms") else "s") for name in TIME_METRICS)
    + tuple((f"{layer}.{rate}", "M/s") for layer, _, rate in RATES)
    + (
        ("report_s.w2", "s"),
        ("experiments.parallel_efficiency", "ratio"),
        ("trace.overhead_frac", "ratio"),
    )
)

# A set-up sample: a fresh interpreter prints the monotonic clock once
# minweight.cli is imported (CLOCK_MONOTONIC is system-wide on Linux).
SETUP_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
    "import minweight.cli; print(time.monotonic())"
)


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to minweight.cli imported."""
    spawned_at = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    return float(done.stdout) - spawned_at


def _report_in_child(report, config: dict, spans_path) -> dict:
    tracer = Tracer() if spans_path is not None else None
    out_dir = OUT / f"report-{os.getpid()}"
    result = report.run_report(config, out_dir, tracer)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["untraced_sites"] = tracer.missing
        tracer.write_spans(spans_path)
    return result


def report_sample(report, config: dict, spans_path=None) -> dict:
    """Run one report in a forked child and return its result record.

    The child leads its own process group, so a sample that overruns
    SAMPLE_TIMEOUT_S is killed together with its pool workers.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            result = _report_in_child(report, config, spans_path)
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(result))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:  # the child has set it already, or has exited
        pass
    deadline = time.monotonic() + SAMPLE_TIMEOUT_S
    chunks = []
    with os.fdopen(read_fd, "rb", buffering=0) as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return {"error": f"report exceeded {SAMPLE_TIMEOUT_S} s"}
            chunk = pipe.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return {"error": f"report process ended with status {status}"}
    return json.loads(b"".join(chunks))


def problems_of(result: dict, pinned, reference) -> list:
    """Why a report counts as failed; empty when it passes every check."""
    if result.get("error"):
        return [result["error"]]
    found = []
    if not result["passed"]:
        found.append("a verdict failed")
    if pinned is not None and result["doc_sha256"] != pinned:
        found.append(f"report digest {result['doc_sha256']} differs from the pinned {pinned}")
    if reference is not None and result["files_sha256"] != reference:
        found.append("report files differ from the first report of this run")
    return found


def typical_s(samples) -> float:
    """Median report time of the samples so far, 0 before the first one."""
    times = [s["report_s"] for s in samples if s.get("report_s") is not None]
    return statistics.median(times) if times else 0.0


def values_of(samples, key) -> list:
    values = [s[key] for s in samples if s.get(key) is not None]
    if not values:
        raise RuntimeError(f"no sample produced {key}")
    return values


def checked_report(report, name, seed, mode, config, pinned, state, spans_path=None) -> dict:
    """One report sample, checked; ``state`` carries the run's tallies."""
    result = report_sample(report, config, spans_path)
    state["attempted"] += 1
    if state["reference"] is None and not result.get("error"):
        state["reference"] = result["files_sha256"]
    problems = problems_of(result, pinned, state["reference"])
    if problems:
        state["failed"] += 1
        print(f"FAILED {name} seed {seed} {mode}: {'; '.join(problems)}")
    return result


def run_workload(report, name: str, seed, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record and prints its metrics."""
    workload = WORKLOADS[name]
    seed = workload.seed if seed is None else seed
    pinned = workload.digest if seed == workload.seed else None
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    state = {"attempted": 0, "failed": 0, "reference": None}
    w1_config = workload.config_for(seed, workers=1)
    w2_config = workload.config_for(seed, workers=2)
    started = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - started

    def room_for(step_s: float, done: int, least: int) -> bool:
        # Go on while another step of typical length ends by about --seconds.
        if done < least:
            return True
        return elapsed() + step_s / 2.0 < seconds and elapsed() < ROUND_DEADLINE_S

    if not trace:
        probe = SpeedProbe()
        setups, reports = [], []
        while True:
            if len(setups) < SETUP_SAMPLES and elapsed() >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(setup_sample())
                probe.after_sample(setups[-1])
                continue
            if not room_for(typical_s(reports), len(reports), MIN_REPORTS) and len(setups) >= SETUP_SAMPLES:
                break
            reports.append(checked_report(report, name, seed, "w1", w1_config, pinned, state))
            probe.after_sample(reports[-1].get("report_s") or 0.0)
        measured = {
            "setup_s": setups,
            "report_s": values_of(reports, "report_s"),
            "peak_rss_mb": values_of(reports, "peak_rss_mib"),
        }
        values = {metric: statistics.median(v) for metric, v in measured.items()}
        factor = probe.factor()
        values["setup_s"] *= factor
        values["report_s"] *= factor
        units = END_TO_END
        summary = f"{len(reports)} reports, {len(setups)} set-ups"
    else:
        samples = {"w1": [], "w2": [], "traced": []}
        while True:
            step = sum(typical_s(v) for v in samples.values())
            if not room_for(step, len(samples["traced"]), MIN_ROUNDS):
                break
            samples["w1"].append(checked_report(report, name, seed, "w1", w1_config, pinned, state))
            samples["w2"].append(checked_report(report, name, seed, "w2", w2_config, pinned, state))
            samples["traced"].append(
                checked_report(report, name, seed, "traced", w1_config, pinned, state, spans_path)
            )
        w1 = statistics.median(values_of(samples["w1"], "report_s"))
        w2 = statistics.median(values_of(samples["w2"], "report_s"))
        traced = [s for s in samples["traced"] if "layers" in s]
        if not traced:
            raise RuntimeError("no traced sample produced layer metrics")
        first = traced[0]["layers"]
        for other in traced[1:]:
            drift = [m for m in COUNT_METRICS + RATIO_METRICS if other["layers"][m] != first[m]]
            if drift:
                state["failed"] += 1
                print(f"HARNESS DEFECT {name}: counts drift between traced reports: {', '.join(drift)}")
        values = {m: first[m] for m in COUNT_METRICS + RATIO_METRICS}
        values.update({m: statistics.median(s["layers"][m] for s in traced) for m in TIME_METRICS})
        for layer, work_name, rate in RATES:
            work = values[f"{layer}.{work_name}"]
            busy = values[f"{layer}.s"]
            values[f"{layer}.{rate}"] = work / busy / 1e6 if busy > 0 else 0.0
        values["report_s.w2"] = w2
        values["experiments.parallel_efficiency"] = w1 / (2.0 * w2)
        values["trace.overhead_frac"] = statistics.median(values_of(traced, "report_s")) / w1 - 1.0
        units = PER_LAYER
        summary = ", ".join(f"{len(v)} {m}" for m, v in samples.items())
        for site in traced[0].get("untraced_sites", []):
            print(f"note: wrap site {site} does not exist in this version; not traced")

    attempted, failed = state["attempted"], state["failed"]
    print(f"workload {name} seed {seed}: {summary} in {elapsed():.1f} s")
    if pinned is None:
        print("  digest check: cross-run byte equality only (not the default seed)")
    else:
        print("  digest check: pinned digest and cross-run byte equality")
    for metric, unit in units:
        line = f"  {metric} = {values[metric]!r} {unit}"
        if not trace:
            v = measured[metric]
            kind = "wall median" if unit == "s" else "median"
            line += f"  ({kind} of {len(v)} {statistics.median(v):.4g}; min {min(v):.4g}, max {max(v):.4g})"
        print(line)
    if trace:
        print(f"  untraced medians: workers=1 {w1!r} s, workers=2 {w2!r} s")
    else:
        print(
            f"  speed factor {factor:.4f}: reference {REFERENCE_S} s over the mean of"
            f" {len(probe.readings)} calibrations, {statistics.fmean(probe.readings):.4g} s"
            f" (min {min(probe.readings):.4g}, max {max(probe.readings):.4g})"
        )
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted!r}")
    if trace:
        print(f"  spans: {spans_path}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _caches() -> dict:
    try:
        done = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    found = {}
    for line in done.stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            found[key.strip()] = value.strip()
    return found


def environment(names) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "caches": _caches(),
        "working_set_computed": {n: working_set(WORKLOADS[n]) for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, help="master seed (default: the workload's pinned seed)")
    parser.add_argument(
        "--seconds", type=float, default=36.0, help="measuring time per workload (BENCHMARK.json: 36)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minweight" / "__init__.py").is_file():
        print(f"error: no minweight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(names), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    # Imports minweight from src/, which also compiles its bytecode and fills
    # the file cache before the first set-up sample. Report samples fork from
    # this process.
    import report

    results = {}
    for name in names:
        results[name] = run_workload(report, name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
