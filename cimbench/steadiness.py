"""Run-to-run steadiness of the end-to-end metrics.

Usage, from the root of a checkout::

    python3 cimbench/steadiness.py --runs 10 [--workloads NAME ...]

Runs ``cimbench/run.py`` untraced ``--runs`` times per workload, each with
another seed and the ``run_seconds`` of ``BENCHMARK.json``, then prints per
metric the median, the interquartile range as a share of the median (as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the bound.
For each run it also prints the tail's percentile and op count, the tail
over the median, and ``ops_per_s`` times the mean op time implied by
``call_p50_s``, which shows whether the tail sits between two modes and
whether throughput comes from the program or the load generator.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

from benchstats import median, spread

ROOT = pathlib.Path(__file__).resolve().parent.parent
TAIL_LINE = re.compile(r"call_tail_s is p([\d.]+) of (\d+) ops")
RSS_LINE = re.compile(r"RSS after each op: min ([\d.]+) MiB, max ([\d.]+)")


def _find(pattern, lines) -> str:
    match = next((pattern.search(line) for line in lines
                  if pattern.search(line)), None)
    return "/".join(match.groups()) if match else "-"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, str]:
    """The result object, the tail's support and the per-op peak RSS range
    of one untraced run."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "cimbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=900,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {out[-1]}")
    return result, "p" + _find(TAIL_LINE, out), _find(RSS_LINE, out)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = {name: [] for name in bounds}
        print(f"\n### {workload}: {args.runs} runs of "
              f"{spec['run_seconds']} s\n")
        print("| seed | call_p50_s | tail (pct/ops) | tail/p50 "
              "| ops_per_s x p50 | RSS after each op, min/max (MiB) |")
        print("|---|---|---|---|---|---|")
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, tail, rss = run_once(workload, seed, spec["run_seconds"])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            for name in bounds:
                values[name].append(metrics[name])
            p50 = metrics["call_p50_s"]
            print(f"| {seed} | {p50:.4f} | {tail} "
                  f"| {metrics['call_tail_s'] / p50:.3f} "
                  f"| {metrics['ops_per_s'] * p50:.3f} | {rss} |", flush=True)
        print("\n| metric | median | spread (IQR/median) | bound "
              "| spread/bound |")
        print("|---|---|---|---|---|")
        for name, series in values.items():
            share = spread(series)
            print(f"| {name} | {median(series):.4g} | {share:.4f} "
                  f"| {bounds[name]} | {share / bounds[name]:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
