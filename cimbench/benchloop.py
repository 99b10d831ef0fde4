"""The closed loop that runs ops, and the end-to-end metrics every workload reports."""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

from benchstats import median, tail

#: Set-up samples per run (fresh interpreters, or gateway launches).
SETUP_REPEATS = 5
#: Measured op after which memory is read.  A fixed count keeps a faster
#: server, which completes more jobs and so holds more, from reading as a
#: memory regression.  A run continues past its window until it reaches
#: this op.
RSS_AT_OP = 12
#: Traced ops per traced run at most (bounds the spans held in memory).
#: A traced run alternates untraced and traced ops, so both see the same
#: machine conditions and their medians give the tracing overhead.
MAX_TRACED_OPS = 8


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class Loop:
    """What a closed loop measured: per-op times and windows, counts."""

    times: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0


def closed_loop(op, check, seconds: float, *, prepare=None, min_ops=1,
                max_ops=None, after_op=None) -> Loop:
    """Run ``op`` back to back until ``seconds`` have passed.

    Op ``i`` gets the input ``prepare(i)``, made before its clock starts
    (``i`` itself without ``prepare``), and its output goes to ``check``
    after its clock stops; an op that raises or fails its check counts as
    failed.  ``after_op(i)`` runs untimed after op ``i``.  The op that
    crosses the deadline completes and counts; at least ``min_ops`` and at
    most ``max_ops`` ops run.
    """
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        index = loop.attempted
        data = prepare(index) if prepare is not None else index
        output = error = None
        begin = time.perf_counter()
        try:
            output = op(data)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            error = exc
        end = time.perf_counter()
        try:
            ok = error is None and check(output)
        except Exception as exc:  # noqa: BLE001 - so is a failed check
            ok, error = False, exc
        del output
        if not ok and not loop.failed:
            print(f"op {index} failed its output check", file=sys.stderr)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
        loop.attempted += 1
        loop.failed += not ok
        loop.times.append(end - begin)
        loop.windows.append((begin, end))
        if after_op is not None:
            after_op(index)
        done = end >= deadline or (max_ops is not None
                                    and loop.attempted >= max_ops)
        if done and loop.attempted >= min_ops:
            loop.elapsed = end - start
            return loop


def end_to_end(setup_samples, loop: Loop, rss_mb: float) -> dict:
    """The five end-to-end metrics, printing the tail's support beside it."""
    value, percentile, beyond = tail(loop.times)
    print(f"call_tail_s is p{percentile:.1f} of {len(loop.times)} ops "
          f"({beyond} beyond it)")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    return {
        "setup_s": {"value": median(setup_samples), "unit": "s"},
        "call_p50_s": {"value": median(loop.times), "unit": "s"},
        "call_tail_s": {"value": value, "unit": "s"},
        "ops_per_s": {"value": (loop.attempted - loop.failed) / loop.elapsed,
                      "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def overhead_frac(loop: Loop) -> float:
    """Traced op median over untraced op median, minus one, for a loop
    whose even ops ran untraced and odd ops traced."""
    return median(loop.times[1::2]) / median(loop.times[0::2]) - 1.0
