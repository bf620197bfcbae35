#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``ingest``
(generate -> spill -> compact -> partition in this process), and
``lookup`` and ``scan`` (closed-loop clients against a ``repro-kron
serve`` process).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that reports the per-layer
metrics, with every layer a workload does not exercise at 0.  The
traced ``lookup`` run also sends its plan through ``serve --fleet 2``
for the router's layers.

Progress goes to stderr.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when a result was printed, and non-zero when the run could not complete
(for instance outside a checkout of the repository).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "lookup", "scan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.pycache_prefix = str(ROOT / ".bench_build" / "perfbench" / "pycache")
    sys.dont_write_bytecode = False

    from perfbench import common, ingest, serving

    counts = common.ExactCounts()
    module = ingest if args.workload == "ingest" else serving
    try:
        result = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), counts)
    except Exception:
        traceback.print_exc()
        return 1
    counts.save()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    if args.trace:
        # A layer the workload does not exercise spent nothing there.
        metrics = {**{m["name"]: common.metric(0, m["unit"]) for m in wanted},
                   **metrics}
    units = {m["name"]: m["unit"] for m in wanted}
    produced = {name: value["unit"] for name, value in metrics.items()}
    if produced != units:
        print(f"metrics differ from BENCHMARK.json: produced {produced}, "
              f"declared {units}", file=sys.stderr)
        return 1
    failures = result["failures"] + counts.failures
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
