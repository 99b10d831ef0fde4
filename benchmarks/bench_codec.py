"""Report codec throughput: encoding and decoding a 100k-row serving report.

Every surface that returns a serving report — ``--json``, the HTTP
gateway, the result store — first encodes it to plain dicts, and every
store hit decodes it back.  This benchmark times exactly those two steps
on one 100k-request ``ServingReport`` (llama2-7b chat, sub-capacity, with
its per-request rows): ``ServingReport.to_dict()`` and
``serving_report_from_dict`` on the JSON-parsed payload, as the store
sees it.  The report itself is simulated once, outside the timed region.

``BENCH_codec.json`` lands at the repository root for CI's regression
gate (encode/decode walls and rows per wall-second).  A slide back to
``dataclasses.asdict`` deep copies costs seconds on this report, far
past the gate's absolute floor.  Pinned invariants: the payload decodes
to an equal report, and it carries every per-request row.
"""

from __future__ import annotations

import gc
import json
import time

from _harness import REPORTS_DIR, emit_report

from repro.api import SimulateRequest
from repro.serving.simulator import serving_report_from_dict, simulate_serving

BENCH_PATH = REPORTS_DIR.parent / "BENCH_codec.json"

NUM_REQUESTS = 100_000
ARRIVAL_RATE = 0.1
SEED = 7
REPEATS = 5


def _timed(function):
    """Median wall of ``REPEATS`` calls with GC paused; (result, wall, walls)."""
    walls = []
    result = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = function()
            walls.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return result, sorted(walls)[len(walls) // 2], walls


def test_report_codec_throughput(benchmark):
    """Encode and decode walls of a 100k-row serving report."""
    request = SimulateRequest(llm="llama2-7b", rate=ARRIVAL_RATE,
                              requests=NUM_REQUESTS, seed=SEED)
    model, config, settings = request.resolve()
    report = simulate_serving(model, config, request.spec(), settings)
    rows = len(report.requests)

    payload, encode_wall, encode_walls = _timed(report.to_dict)
    stored = json.loads(json.dumps(payload))
    decoded, decode_wall, decode_walls = _timed(
        lambda: serving_report_from_dict(stored))

    emit_report(
        "report_codec",
        ["step", "median wall", "rows/wall-second"],
        [["encode (to_dict)", f"{encode_wall:.3f} s",
          f"{rows / encode_wall:,.0f}"],
         ["decode (from JSON payload)", f"{decode_wall:.3f} s",
          f"{rows / decode_wall:,.0f}"]],
        title=f"Report codec: {rows:,}-row ServingReport "
              f"(llama2-7b chat, {ARRIVAL_RATE} req/s, seed {SEED})")

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "report_codec",
        "model": "llama2-7b",
        "num_requests": NUM_REQUESTS,
        "rows": rows,
        "arrival_rate": ARRIVAL_RATE,
        "seed": SEED,
        "encode_wall_seconds": encode_wall,
        "encode_wall_seconds_all": encode_walls,
        "encode_rows_per_wall_second": rows / encode_wall,
        "decode_wall_seconds": decode_wall,
        "decode_wall_seconds_all": decode_walls,
        "decode_rows_per_wall_second": rows / decode_wall,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote report codec benchmark record to {BENCH_PATH}")

    assert rows == report.completed > 0.9 * NUM_REQUESTS
    assert len(payload["requests"]) == rows
    assert decoded == report

    benchmark(report.to_dict)
