"""The in-process workloads: the paper's design grid and sub-capacity serving.

``sweep-paper-grid``: one op is ``repro.api.sweep(SweepRequest())`` — the
default 96-point grid on a fresh engine with no store — plus the JSON
encoding of its envelope.  Cold analytical pricing is nearly all of it.

``serve-chat-20k``: one op is ``repro.api.simulate`` of ``llama2-7b``
``chat-serving`` with 20 000 Poisson requests at 0.1 req/s (simulated
utilisation about 0.5), plus the JSON encoding of its envelope.  The
request seed comes from the benchmark seed and is the same on every op,
so every op does the same work and returns the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys
import time

from benchloop import (
    MAX_TRACED_OPS,
    RSS_AT_OP,
    SETUP_REPEATS,
    closed_loop,
    end_to_end,
    expect,
    overhead_frac,
)
from benchstats import derive_seed, proc_status_mb
from benchtrace import (
    Tracer,
    byte_count,
    assign_ops,
    installed,
    layer_metrics,
    print_shares,
    unattributed_frac,
    write_spans,
)

HERE = pathlib.Path(__file__).resolve().parent
SERVE_LLM = "llama2-7b"
SERVE_RATE = 0.1
SERVE_REQUESTS = 20_000
SWEEP_POINTS = 96


def encode(response) -> bytes:
    """The envelope as ``--json`` writes it."""
    return json.dumps(response.to_dict(), indent=2).encode()


def make_request(api, workload: str, seed: int):
    """The one request every op of the run submits."""
    if workload == "sweep-paper-grid":
        return api.SweepRequest()
    return api.SimulateRequest(llm=SERVE_LLM, rate=SERVE_RATE,
                               requests=SERVE_REQUESTS,
                               seed=derive_seed(seed, workload))


def check_content(api, workload: str, data: bytes) -> None:
    """Raise :class:`CheckFailed` unless ``data`` is a sound envelope."""
    response = api.response_from_dict(json.loads(data))
    expect(encode(response) == data, "envelope does not round-trip")
    expect(response.new_simulations > 0 and not response.served_from_store,
           "a storeless call reports no new simulation")
    if workload == "sweep-paper-grid":
        rows = response.row_objects()
        expect(len(rows) == SWEEP_POINTS, f"{len(rows)} sweep rows")
        expect(all(row.latency_seconds > 0 and row.mxu_energy_joules > 0
                   for row in rows), "non-positive latency or energy")
    else:
        report = response.report_object()
        expect(report.num_requests == SERVE_REQUESTS
               and report.completed + report.rejected == SERVE_REQUESTS,
               "requests not conserved")
        expect(len(report.requests) == report.completed > 0,
               "per-request rows missing")
        expect(0.0 < report.utilisation < 1.0, "not sub-capacity")


def time_setup(kind: str, root: pathlib.Path) -> float:
    """Seconds from spawning a fresh interpreter until it is warm."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), kind],
                   cwd=root, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: pathlib.Path, work: pathlib.Path) -> dict:
    import repro.api as api

    kind = "sweep" if workload == "sweep-paper-grid" else "simulate"
    setups = ([] if trace else
              [time_setup(kind, root) for _ in range(SETUP_REPEATS)])
    call = api.sweep if kind == "sweep" else api.simulate
    request = make_request(api, workload, seed)

    reference = encode(call(request))  # warm-up op, untimed
    check_content(api, workload, reference)
    digest = hashlib.sha256(reference).digest()
    del reference

    def same_output(data: bytes) -> bool:
        return hashlib.sha256(data).digest() == digest

    if not trace:
        peaks = []
        loop = closed_loop(
            lambda _: encode(call(request)), same_output, seconds,
            min_ops=RSS_AT_OP,
            after_op=lambda _: peaks.append(proc_status_mb("self", "VmHWM")))
        print(f"peak RSS after each op: min {min(peaks):.1f} MiB, "
              f"max {max(peaks):.1f} MiB over {len(peaks)} ops")
        return {"attempted": loop.attempted, "failed": loop.failed,
                "metrics": end_to_end(setups, loop, peaks[RSS_AT_OP - 1])}

    tracer = Tracer()
    traced_encode = tracer.wrap("api.encode", encode, byte_count)

    def alternate(index: int) -> bytes:
        if index % 2 == 0:
            return encode(call(request))
        tracer.op = index // 2
        with installed(tracer):
            return traced_encode(call(request))

    loop = closed_loop(alternate, same_output, seconds, min_ops=2,
                       max_ops=2 * MAX_TRACED_OPS)
    windows = loop.windows[1::2]
    spans = assign_ops(tracer.spans, windows)
    write_spans(work / f"{workload}.spans.json", spans)
    print_shares(spans, windows)
    metrics = layer_metrics(spans, len(windows))
    metrics["bench.trace_overhead_frac"] = overhead_frac(loop)
    metrics["bench.unattributed_frac"] = unattributed_frac(spans, windows)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "layers": metrics}
