"""The ``BENCHMARK.json`` command: one workload per call.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.  With ``--trace 0`` it repeats
the workload in fresh children (at least ``MIN_REPS``, and until ``S``
seconds of timed region are measured) and reports the median of every
end-to-end metric; with ``--trace 1`` it runs the traced per-layer suite
once.  The last stdout line is the result object the contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Repetitions a run never goes below: ``setup_s`` and the timed region
#: are reported as medians over fresh children.
MIN_REPS = 3


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("ledger: no src/repro under %s: nothing to measure" % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.ledger import harness, layers
    from benchmarks.ledger.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print("ledger: workload %s, seed %d" % (args.workload, args.seed))
    if args.trace:
        report = layers.run_trace_child(args.workload, args.seed)
        print(layers.format_layers(report))
        metrics = {
            name: {"value": value, "unit": layers.PER_LAYER[name][0]}
            for name, value in report["layers"].items()
        }
        attempted, failed = report["attempted"], report["failed"]
    else:
        entry = harness.run_workload(
            args.workload, args.seed, reps=MIN_REPS, seconds=args.seconds
        )
        print(harness.format_entry(entry))
        metrics = {
            name: {"value": stats["value"], "unit": harness.END_TO_END[name][0]}
            for name, stats in entry["metrics"].items()
        }
        attempted, failed = entry["attempted"], entry["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
