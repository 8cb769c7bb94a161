"""Timing spans around the public calls each minweight module makes.

A :class:`Tracer` replaces, for the duration of ``with tracer.installed():``,
the module attributes listed in :data:`LAYERS` by thin wrappers. Each site is
the name a caller looks up at call time, so ``minweight.experiments:kruskal_mst``
times the driver's calls into the tree layer and ``minweight.rng:hash_words_vec``
times every ``rng.hash_words_vec(...)`` call in the package. The originals are
put back on exit. No file of the program is changed.

Every call becomes one span: name, start, end, parent span and trial id, kept
in memory and written out once by :meth:`Tracer.write_spans`. A span's self
time is its duration minus the durations of its direct child spans.

Scalar ``rng.hash_words`` is deliberately not wrapped: it is called millions
of times per run and a wrapper would cost more than the hash. Its time lands
in the self time of whichever span calls it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _absorbs(args, kwargs, result):
    # words absorbed x broadcast size; the result has the broadcast shape
    return len(args) * result.size


def _matrix_edges(args, kwargs, result):
    n = _arg(args, kwargs, 2, "n")
    return n * (n - 1) // 2


def _grid_edges(args, kwargs, result):
    return result.size


def _kruskal_edges(args, kwargs, result):
    n = args[0].n
    return n * (n - 1) // 2


def _cellhops(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    if n == 0:
        return 0
    k = _arg(args, kwargs, 2, "k")
    radius = _arg(args, kwargs, 3, "box_radius")
    return k * (2 * radius + 1) ** args[0].d


def _dijkstra_nodes(args, kwargs, result):
    return args[0].shape[0]


@dataclass(frozen=True)
class Layer:
    """One wrapped call.

    ``sites`` are the "module:attribute" names callers look the function up
    by. ``ctx_arg`` is the position of the argument that carries the trial:
    an instance with a ``ctx`` (position 0) or a SeedContext itself
    (position 1); without it a span inherits its parent's trial. ``work`` is
    (count of one call from (args, kwargs, result), count suffix, rate
    suffix). ``certified`` reads a certificate flag from the result, and
    ``percentiles`` asks for per-call latency percentiles.
    """

    name: str
    sites: tuple
    ctx_arg: int | None = None
    work: tuple = ()
    certified: bool = False
    percentiles: bool = False


_EXP = "minweight.experiments:"

# The first layer is the driver root; every other span nests inside it.
LAYERS = (
    Layer("experiments", (_EXP + "run_experiment",)),
    Layer("cli.emit_report", ("minweight.cli:emit_report",)),
    Layer(
        "rng.hash_words_vec",
        ("minweight.rng:hash_words_vec",),
        work=(_absorbs, "absorbs", "mabsorb_per_s"),
    ),
    Layer(
        "weights.weight_matrix",
        ("minweight.trees:weight_matrix",),
        1,
        (_matrix_edges, "edges", "medges_per_s"),
    ),
    Layer("weights.weights_from_vertex", ("minweight.trees:weights_from_vertex",), 1),
    Layer(
        "weights.passage_time_grid",
        ("minweight.lattice:passage_time_grid",),
        1,
        (_grid_edges, "edges", "medges_per_s"),
    ),
    Layer(
        "trees.kruskal_mst",
        (_EXP + "kruskal_mst",),
        0,
        (_kruskal_edges, "edges", "medges_per_s"),
        percentiles=True,
    ),
    Layer("trees.greedy_spanning_path", (_EXP + "greedy_spanning_path",), 0),
    Layer("trees.threshold_lower_bound", (_EXP + "threshold_lower_bound",), 0),
    Layer("trees.sample_yj", (_EXP + "sample_yj",), 0, percentiles=True),
    Layer("trees.exact_min_tree", (_EXP + "exact_min_tree",), 0, percentiles=True),
    Layer("trees.prufer_mst_weight", (_EXP + "prufer_mst_weight",), 0),
    Layer("lattice.unconstrained_time", (_EXP + "unconstrained_time",), 0, percentiles=True),
    Layer(
        "lattice.hop_constrained_certified",
        (_EXP + "hop_constrained_certified",),
        0,
        percentiles=True,
    ),
    Layer(
        "lattice.hop_constrained_time",
        (_EXP + "hop_constrained_time", "minweight.lattice:hop_constrained_time"),
        0,
        (_cellhops, "cellhops", "mcellhops_per_s"),
        certified=True,
    ),
    Layer("lattice.enumerate_paths_oracle", (_EXP + "enumerate_paths_oracle",), 0),
    Layer(
        "scipy.dijkstra",
        ("minweight.lattice:_csgraph_dijkstra",),
        work=(_dijkstra_nodes, "nodes", "mnodes_per_s"),
    ),
    Layer("scipy.csr_matrix", ("minweight.lattice:csr_matrix",)),
    Layer("stats.summarize", (_EXP + "summarize",)),
)

# (layer, work count suffix, rate suffix); the rate is the work count in
# millions over the layer's inclusive seconds.
RATES = tuple((layer.name, layer.work[1], layer.work[2]) for layer in LAYERS if layer.work)

# Metrics of a traced report that must repeat exactly between runs: they are
# derived from call arguments, results and the span tree, never from time.
COUNT_METRICS = tuple(f"{layer.name}.calls" for layer in LAYERS[1:]) + tuple(
    f"{layer}.{work}" for layer, work, _ in RATES
)
RATIO_METRICS = (
    "lattice.hop_constrained_time.certified_frac",
    "lattice.hop_constrained_certified.attempts_per_call",
    "scipy.dijkstra.calls_per_solve",
)

# Metrics of a traced report in seconds or milliseconds.
TIME_METRICS = (
    ("experiments.s", "experiments.self_s")
    + tuple(f"{layer.name}.{part}" for layer in LAYERS[1:] for part in ("s", "self_s"))
    + tuple(f"{layer.name}.{p}_ms" for layer in LAYERS if layer.percentiles for p in ("p50", "p99"))
)


def _trial_of(arg, ctx_arg, inherited):
    ctx = getattr(arg, "ctx", None) if ctx_arg == 0 else arg
    return getattr(ctx, "trial_index", inherited)


class Tracer:
    """Collects one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, trial, work, certified)
        self.missing = []  # wrap sites the program no longer has
        self._stack = []  # (span index, trial) of the open spans

    def _wrap(self, layer: Layer, fn):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        name, ctx_arg, certified = layer.name, layer.ctx_arg, layer.certified
        work = layer.work[0] if layer.work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, trial = stack[-1] if stack else (-1, None)
            if ctx_arg is not None and len(args) > ctx_arg:
                trial = _trial_of(args[ctx_arg], ctx_arg, trial)
            index = len(spans)
            spans.append(None)
            stack.append((index, trial))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf(), parent, trial, 0, None)
                raise
            finally:
                stack.pop()
            end = perf()
            amount, flag = 0, None
            try:
                if work is not None:
                    amount = work(args, kwargs, result)
                if certified:
                    flag = result.certified
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a later signature; the span keeps its time, the count reads 0
            spans[index] = (name, start, end, parent, trial, amount, flag)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site of :data:`LAYERS`; restore the originals on exit."""
        saved = []
        try:
            for layer in LAYERS:
                for site in layer.sites:
                    module_name, attr = site.split(":")
                    try:
                        module = importlib.import_module(module_name)
                    except ModuleNotFoundError:
                        module = None
                    original = getattr(module, attr, None)
                    if original is None:  # renamed or removed by a later version
                        self.missing.append(site)
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self) -> dict:
        """Per-layer counts and times of the spans recorded so far."""
        calls = {layer.name: 0 for layer in LAYERS}
        total = dict.fromkeys(calls, 0.0)
        child = dict.fromkeys(calls, 0.0)
        work = dict.fromkeys(calls, 0)
        durations = {layer.name: [] for layer in LAYERS if layer.percentiles}
        certified = attempts = retried = dijkstra_in_solve = 0
        for name, start, end, parent, _, amount, cert in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            work[name] += amount
            if name in durations:
                durations[name].append(duration)
            if parent >= 0:
                parent_name = self.spans[parent][0]
                child[parent_name] += duration
                if name == "lattice.hop_constrained_time" and parent_name == "lattice.hop_constrained_certified":
                    retried += 1
                if name == "scipy.dijkstra" and parent_name == "lattice.unconstrained_time":
                    dijkstra_in_solve += 1
            if cert is not None:
                attempts += 1
                certified += bool(cert)

        out = {}
        root = LAYERS[0].name
        out["experiments.s"] = total[root]
        out["experiments.self_s"] = total[root] - child[root]
        for layer in list(calls)[1:]:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = total[layer]
            out[f"{layer}.self_s"] = total[layer] - child[layer]
        for layer, samples in durations.items():
            p50, p99 = np.percentile(samples, [50, 99]) if samples else (0.0, 0.0)
            out[f"{layer}.p50_ms"] = 1e3 * float(p50)
            out[f"{layer}.p99_ms"] = 1e3 * float(p99)
        for layer, name, _ in RATES:
            out[f"{layer}.{name}"] = work[layer]
        out["lattice.hop_constrained_time.certified_frac"] = certified / attempts if attempts else 0.0
        solves = calls["lattice.hop_constrained_certified"]
        out["lattice.hop_constrained_certified.attempts_per_call"] = retried / solves if solves else 0.0
        solves = calls["lattice.unconstrained_time"]
        out["scipy.dijkstra.calls_per_solve"] = dijkstra_in_solve / solves if solves else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, trial, _, _ in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "trial": trial,
                        }
                    )
                    + "\n"
                )
