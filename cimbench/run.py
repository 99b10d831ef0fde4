"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 cimbench/run.py --workload sweep-paper-grid --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs untraced ops for half the window and traced ops for the
other half and reports the per-layer metrics instead.  Human-readable lines
come first; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The program is imported
from the checkout's ``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run artefacts (stores, server logs, span files); ignored by git.
WORK = ROOT / ".cimbench_work"

WORKLOADS = ("sweep-paper-grid", "serve-chat-20k", "gateway-store")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)

    if args.workload == "gateway-store":
        import gateway_load as workload
    else:
        import inproc_load as workload
    try:
        outcome = workload.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT, WORK)
    except Exception:  # noqa: BLE001 - report a broken program as incorrect
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0

    if args.trace:
        from benchtrace import PER_LAYER

        layers = outcome["layers"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = outcome["metrics"]
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
