"""One report, timed: config -> driver -> emitted report files.

This is the path ``minweight <sub> --config`` takes: the public driver entry
``experiments.run_experiment(ExperimentConfig.from_dict(cfg))`` followed by
``cli.emit_report``. Importing this module imports minweight from the
checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from minweight import cli, experiments  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"minweight was imported from {cli.__file__}, not from {SRC}")


def run_report(config: dict, out_dir, tracer=None) -> dict:
    """Run ``config`` and emit its report into ``out_dir`` (removed afterwards).

    Returns the report time, whether every verdict passed, the sha256 of
    ``cli.report_document`` (the digest the test suite pins) and a sha256 over
    the emitted files' names and bytes, or the error the report raised. With
    a tracer the program's layers are wrapped for this report only.
    """
    out_dir = Path(out_dir)
    result = {"report_s": None, "passed": False, "doc_sha256": None, "files_sha256": None, "error": None}
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            report = experiments.run_experiment(experiments.ExperimentConfig.from_dict(config))
            paths = cli.emit_report(report, "both", out_dir)
            result["report_s"] = time.perf_counter() - start
        doc = json.dumps(cli.report_document(report), indent=2, sort_keys=True)
        result["doc_sha256"] = hashlib.sha256(doc.encode()).hexdigest()
        files = hashlib.sha256()
        for path in paths:
            files.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        result["files_sha256"] = files.hexdigest()
        result["passed"] = report.passed
    except Exception as exc:  # one failed report; the benchmark goes on
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result
