"""Order statistics and small shared helpers of the benchmark.

Every timing the benchmark reports is a median or a *tail*: the highest
percentile that still has at least ``MIN_BEYOND`` samples above it, so the
tail of a short run is never a single outlier.
"""

from __future__ import annotations

import hashlib
import statistics

#: Samples a reported tail percentile must have beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    """The sample median (mean of the middle pair for even counts)."""
    return statistics.median(values)


def tail(values, beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, beyond)`` of the highest well-supported percentile.

    The value is the sample with ``beyond`` samples above it.  A run with
    fewer than ``2 * beyond`` samples cannot support that, so the count
    beyond shrinks to half the samples and the tail degrades towards the
    median instead of resting on a few slow samples.  ``percentile`` is the
    share of samples at or below the value, in percent.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    beyond = min(beyond, n // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def spread(values) -> float:
    """Interquartile range as a share of the median (the steadiness figure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def derive_seed(seed: int, salt: str) -> int:
    """A 31-bit request seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def proc_status_mb(pid: int | str, field: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmHWM`` is peak RSS) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{field} not in /proc/{pid}/status")
