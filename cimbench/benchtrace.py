"""Layer tracing for the benchmark's traced runs, from outside ``src/``.

A :class:`Tracer` wraps the public function of each layer *where its
caller looks the name up* (a class attribute for methods, the calling
module's global for imported functions), records one span per call in
memory and computes per-layer self times afterwards.  Nothing in the
program changes: :func:`installed` restores every original on exit, and
the untraced runs never install it.

A span is ``(id, name, start, end, parent, op, info)``: ``parent`` is the
enclosing span on the same thread (0 at top level), ``op`` the benchmark
op that was running (``None`` in another process, filled in later from
the op's time window) and ``info`` a small JSON value a hook attached,
such as a cache hit flag or a byte count.  Times come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so spans recorded in the gateway server line up with the client's op
windows.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# Span tuple fields.
ID, NAME, START, END, PARENT, OP, INFO = range(7)


class Tracer:
    """Records spans of wrapped calls; safe to share between threads."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[tuple] = []
        #: The benchmark op in progress, set by the workload before each
        #: traced op; the gateway server's tracer leaves it ``None``.
        self.op: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._clock = clock

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped to record a ``name`` span per call.

        ``hook(args, call)`` may replace the plain call: it must invoke
        ``call()`` once and return ``(result, info)``.
        """
        append = self.spans.append
        local = self._local
        ids = self._ids
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "parent", 0)
            span_id = next(ids)
            local.parent = span_id
            info = None
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                result, info = hook(args, lambda: fn(*args, **kwargs))
                return result
            finally:
                end = clock()
                local.parent = parent
                append((span_id, name, start, end, parent, self.op, info))

        return traced


# ------------------------------------------------------------------ hooks
def byte_count(args, call):
    result = call()
    return result, len(result)


def _graph_lookup(args, call):
    stats = args[0].cache.stats
    hits = stats.hits
    result = call()
    return result, stats.hits > hits


def _matmul_key(args, call):
    engine, op = args[0], args[1]
    key = hash((id(engine), op.m, op.k, op.n, op.batch, op.precision,
                op.stationary_weights, op.weight_source, op.activation_source))
    return call(), key


def _cost_lookups(args, call):
    stats = args[0].costs.stats
    hits, misses = stats.hits, stats.misses
    result = call()
    new_hits = stats.hits - hits
    return result, [new_hits, new_hits + stats.misses - misses]


def _store_get(args, call):
    result = call()
    return result, result is not None


def _store_put(args, call):
    path = args[0].path
    before = os.path.getsize(path) if path.exists() else 0
    result = call()
    return result, os.path.getsize(path) - before


#: ``(module, attribute path, span name, hook)`` for every traced layer
#: boundary.  The pricing path is wrapped at each component's public entry;
#: ``api.encode`` and ``api.decode`` also come from the benchmark's own
#: encode/decode calls (see the workloads), and the gateway server wraps
#: its JSON encoder separately.
TARGETS = (
    ("repro.api.requests", "SimulateRequest.resolve", "api.resolve", None),
    ("repro.api.requests", "SweepRequest.grid", "api.resolve", None),
    ("repro.api.responses", "_Response.to_dict", "api.to_dict", None),
    ("repro.serving.metrics", "ServingReport.to_dict", "api.to_dict", None),
    ("repro.sweep.engine", "SweepResult.to_dict", "api.to_dict", None),
    ("repro.serving.simulator", "serving_report_from_dict", "api.decode", None),
    ("repro.sweep.cache", "CachingInferenceSimulator.graph_key",
     "sweep.graph_key", None),
    ("repro.sweep.cache", "CachingInferenceSimulator.run_graph",
     "sweep.graph_lookup", _graph_lookup),
    ("repro.core.tpu", "TPUModel.run_graph", "core.run_graph", None),
    ("repro.core.tpu", "TPUModel.run_operator", "core.run_operator", None),
    ("repro.mapping.engine", "MappingEngine.map_matmul", "mapping.map_matmul",
     _matmul_key),
    ("repro.cim.mxu", "CIMMXU.gemm", "cim.gemm", None),
    ("repro.systolic.systolic_array", "DigitalMXU.gemm", "systolic.gemm", None),
    ("repro.memory.hierarchy", "MemoryHierarchy.transfer", "memory.transfer",
     None),
    ("repro.vector.vpu", "VectorUnit.execute", "vector.execute", None),
    ("repro.serving.simulator", "generate_trace", "serving.trace", None),
    ("repro.serving.costs", "StepCostModel._step", "serving.price", None),
    ("repro.serving.simulator", "ServingSimulator.run", "serving.loop",
     _cost_lookups),
    ("repro.serving.simulator", "ServingSimulator._build_report",
     "serving.aggregate", None),
    ("repro.sweep.store", "ResultStore.get", "store.get", _store_get),
    ("repro.sweep.store", "ResultStore.put", "store.put", _store_put),
)


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Patch every target with a tracing wrapper; restore them on exit."""
    undo = []
    try:
        for module_name, path, name, hook in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, hook))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --------------------------------------------------------------- analysis
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    return {span[ID]: (span[END] - span[START])
            - covered(children.get(span[ID], ()), span[START], span[END])
            for span in spans}


def assign_ops(spans, windows) -> list[tuple]:
    """Spans with ``op`` set from the op whose ``(start, end)`` window holds
    their start; spans that already carry an op keep it, spans outside
    every window (warm-up, idle) are dropped."""
    starts = [window[0] for window in windows]
    placed = []
    for span in spans:
        op = span[OP]
        if op is None:
            index = bisect.bisect_right(starts, span[START]) - 1
            if index < 0 or span[START] >= windows[index][1]:
                continue
            op = index
        placed.append(span[:OP] + (op,) + span[OP + 1:])
    return placed


def unattributed_frac(spans, windows) -> float:
    """Share of op wall time inside no span (spans already op-assigned)."""
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[OP]].append((span[START], span[END]))
    wall = sum(end - start for start, end in windows)
    inside = sum(covered(by_op.get(op, ()), start, end)
                 for op, (start, end) in enumerate(windows))
    return 1.0 - inside / wall


#: metric -> span names whose self time it sums, per op.
SELF_TIME = {
    "mapping.map_matmul_s": ("mapping.map_matmul",),
    "cim.gemm_s": ("cim.gemm",),
    "systolic.gemm_s": ("systolic.gemm",),
    "memory.transfer_s": ("memory.transfer",),
    "vector.execute_s": ("vector.execute",),
    "core.run_graph_s": ("core.run_graph", "core.run_operator"),
    "sweep.graph_key_s": ("sweep.graph_key",),
    "api.resolve_s": ("api.resolve",),
    "api.to_dict_s": ("api.to_dict",),
    "api.encode_s": ("api.encode",),
    "api.decode_s": ("api.decode",),
    "serving.trace_s": ("serving.trace",),
    "serving.price_s": ("serving.price",),
    "serving.loop_s": ("serving.loop",),
    "serving.aggregate_s": ("serving.aggregate",),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
}

#: metric -> span name whose calls it counts, per op.
CALLS = {
    "mapping.map_matmul_calls": "mapping.map_matmul",
    "cim.gemm_calls": "cim.gemm",
    "systolic.gemm_calls": "systolic.gemm",
    "memory.transfer_calls": "memory.transfer",
    "vector.execute_calls": "vector.execute",
    "core.run_operator_calls": "core.run_operator",
    "sweep.simulations": "core.run_graph",
    "api.to_dict_calls": "api.to_dict",
    "serving.price_calls": "serving.price",
}

#: metric -> span name whose numeric ``info`` it sums, per op.
INFO_SUMS = {
    "api.encode_bytes": "api.encode",
    "store.put_bytes": "store.put",
}


#: Every per-layer metric and its unit, in report order.  A layer a
#: workload never reaches reports 0.
PER_LAYER = {
    "mapping.map_matmul_s": "s/op",
    "mapping.map_matmul_calls": "calls/op",
    "mapping.distinct_frac": "ratio",
    "cim.gemm_s": "s/op",
    "cim.gemm_calls": "calls/op",
    "systolic.gemm_s": "s/op",
    "systolic.gemm_calls": "calls/op",
    "memory.transfer_s": "s/op",
    "memory.transfer_calls": "calls/op",
    "vector.execute_s": "s/op",
    "vector.execute_calls": "calls/op",
    "core.run_graph_s": "s/op",
    "core.run_operator_calls": "calls/op",
    "sweep.graph_key_s": "s/op",
    "sweep.simulations": "count/op",
    "sweep.graph_hit_frac": "ratio",
    "api.resolve_s": "s/op",
    "api.to_dict_s": "s/op",
    "api.to_dict_calls": "calls/op",
    "api.encode_s": "s/op",
    "api.encode_bytes": "B/op",
    "api.decode_s": "s/op",
    "serving.trace_s": "s/op",
    "serving.price_s": "s/op",
    "serving.price_calls": "calls/op",
    "serving.loop_s": "s/op",
    "serving.aggregate_s": "s/op",
    "serving.cost_hit_frac": "ratio",
    "store.get_s": "s/op",
    "store.put_s": "s/op",
    "store.put_bytes": "B/op",
    "store.hit_frac": "ratio",
    "gateway.queue_wait_s": "s/op",
    "gateway.run_s": "s/op",
    "gateway.http_s": "s/op",
    "gateway.polls_per_job": "polls/job",
    "gateway.result_bytes": "B/op",
    "gateway.cold_job_s": "s",
    "gateway.warm_job_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
}


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op layer metrics from op-assigned spans of ``ops`` traced ops."""
    own = self_times(spans)
    seconds = defaultdict(float)
    calls = defaultdict(int)
    info_sum = defaultdict(float)
    flags = defaultdict(lambda: [0, 0])
    matmul_keys = defaultdict(set)
    cost_hits = cost_lookups = 0
    for span in spans:
        name, info = span[NAME], span[INFO]
        seconds[name] += own[span[ID]]
        calls[name] += 1
        if name in ("sweep.graph_lookup", "store.get"):
            flags[name][0] += bool(info)
            flags[name][1] += 1
        elif name == "mapping.map_matmul":
            matmul_keys[span[OP]].add(info)
        elif name == "serving.loop":
            cost_hits += info[0]
            cost_lookups += info[1]
        elif name in INFO_SUMS.values():
            info_sum[name] += info

    def ratio(hits, total):
        return hits / total if total else 0.0

    metrics = {metric: sum(seconds[name] for name in names) / ops
               for metric, names in SELF_TIME.items()}
    metrics.update({metric: calls[name] / ops for metric, name in CALLS.items()})
    metrics.update({metric: info_sum[name] / ops
                    for metric, name in INFO_SUMS.items()})
    metrics["mapping.distinct_frac"] = ratio(
        sum(len(keys) for keys in matmul_keys.values()),
        calls["mapping.map_matmul"])
    metrics["sweep.graph_hit_frac"] = ratio(*flags["sweep.graph_lookup"])
    metrics["store.hit_frac"] = ratio(*flags["store.get"])
    metrics["serving.cost_hit_frac"] = ratio(cost_hits, cost_lookups)
    return metrics


def print_shares(spans, windows) -> None:
    """Print each layer's self time (a layer is the span name's prefix)
    as a share of total op wall time.

    For the gateway, server spans overlap the client's waits, so the
    shares of its two processes can add up past one.
    """
    own = self_times(spans)
    wall = sum(end - start for start, end in windows)
    shares = defaultdict(float)
    for span in spans:
        shares[span[NAME].split(".")[0]] += own[span[ID]] / wall
    print("layer self-time shares of op wall time: " + ", ".join(
        f"{layer} {share:.3f}" for layer, share
        in sorted(shares.items(), key=lambda item: -item[1])))


def write_spans(path, spans) -> None:
    """Write spans as one JSON array of span arrays."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle, separators=(",", ":"))


def read_spans(path) -> list[tuple]:
    """Spans written by :func:`write_spans`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]
