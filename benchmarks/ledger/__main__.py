"""``python -m benchmarks.ledger run|trace`` — the whole ledger.

``run`` repeats all five workloads (each repetition a fresh child, one
at a time), prints every end-to-end metric by name with its unit, checks
the ``sim`` blocks and writes a payload in ``benchmarks/emit.py``'s
``tracked`` shape, so ``python -m benchmarks.emit NEW.json --baseline
OLD.json`` is the comparer.  ``trace`` is the separate traced run that
produces the per-layer numbers and the Perfetto trace.

Exit status: 0 when every operation succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy

from ..emit import tracked_entry
from ..test_parallel_scaling import host_cores
from . import harness, layers
from .workloads import FULL, SMOKE, WORKLOADS


def host_block() -> Dict[str, Any]:
    """What the numbers were measured on."""
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # an exported checkout
    return {
        "cores": host_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # What run_parallel picks when not told otherwise.
        "start_method": (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ),
        "git_commit": commit,
    }


def write_payload(path: str, payload: Dict[str, Any]) -> None:
    """Canonical JSON, as ``benchmarks.emit.emit_json`` writes it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as sink:
        json.dump(payload, sink, sort_keys=True, separators=(",", ": "), indent=1)
        sink.write("\n")
    print("ledger: wrote %s" % path)


def command_run(args: argparse.Namespace) -> int:
    sizes = SMOKE if args.smoke else FULL
    print("ledger: seed %d, %s sizes, %d repetitions" % (args.seed, sizes.name, args.reps))
    entries: List[Dict[str, Any]] = []
    for name in args.workload or list(WORKLOADS):
        entry = harness.run_workload(
            name, args.seed, sizes.name, reps=args.reps,
            expected_path=None if args.pin else args.expected,
        )
        print(harness.format_entry(entry))
        entries.append(entry)
    failed = sum(entry["failed"] for entry in entries)
    if args.pin:
        if failed:
            print("ledger: not pinning: %d operation(s) failed" % failed)
            return 1
        write_payload(
            args.expected,
            {
                "seed": args.seed,
                "sizes": sizes.name,
                "sim": {entry["workload"]: entry["sim"] for entry in entries},
            },
        )
    tracked: Dict[str, Any] = {}
    for entry in entries:
        for metric, stats in entry["metrics"].items():
            _, better, bound = harness.END_TO_END[metric]
            tracked["%s.%s" % (entry["workload"], metric)] = tracked_entry(
                stats["value"], better, bound
            )
        tracked[entry["workload"] + ".fail_ratio"] = tracked_entry(
            entry["fail_ratio"], "lower", 0.0
        )
    write_payload(
        args.out,
        {
            "benchmark": "ledger",
            "seed": args.seed,
            "sizes": sizes.name,
            "reps": args.reps,
            "host": host_block(),
            "tracked": tracked,
            "detail": {entry["workload"]: entry["metrics"] for entry in entries},
            "operations": {
                entry["workload"]: {
                    key: entry[key] for key in ("attempted", "failed", "pinned")
                }
                for entry in entries
            },
            "sim": {entry["workload"]: entry["sim"] for entry in entries},
        },
    )
    return 1 if failed else 0


def command_trace(args: argparse.Namespace) -> int:
    sizes = SMOKE if args.smoke else FULL
    print(
        "ledger: traced run, seed %d, %s sizes, overhead pair on %s"
        % (args.seed, sizes.name, args.workload)
    )
    report = layers.run_trace_child(args.workload, args.seed, sizes.name)
    print(layers.format_layers(report))
    if report["layers"]:
        print(
            "ledger: Perfetto trace in %s"
            % os.path.join(harness.RESULTS_DIR, "trace_%s.json" % args.workload)
        )
    write_payload(
        args.out,
        {
            "benchmark": "ledger-trace",
            "seed": args.seed,
            "sizes": sizes.name,
            "workload": args.workload,
            "host": host_block(),
            "layers": {
                name: {"value": value, "unit": layers.PER_LAYER[name][0]}
                for name, value in report["layers"].items()
            },
            "checks": {key: report[key] for key in ("attempted", "failed", "failures")},
        },
    )
    return 1 if report["failed"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="all workloads, end-to-end metrics")
    run.add_argument("--seed", type=int, default=harness.PINNED_SEED)
    run.add_argument("--reps", type=int, default=5, help="children per workload (>= 5)")
    run.add_argument("--out", default=os.path.join(harness.RESULTS_DIR, "BENCH_ledger.json"))
    run.add_argument("--workload", action="append", choices=list(WORKLOADS))
    run.add_argument("--smoke", action="store_true", help="Tier-1 test sizes")
    run.add_argument("--expected", default=harness.EXPECTED_PATH)
    run.add_argument(
        "--pin", action="store_true",
        help="write this run's sim blocks to --expected (after a change "
        "that is meant to alter simulated output)",
    )
    run.set_defaults(handler=command_run)

    trace = commands.add_parser("trace", help="per-layer metrics and the trace")
    trace.add_argument("--seed", type=int, default=harness.PINNED_SEED)
    trace.add_argument("--workload", default="yarrp6-walk", choices=list(WORKLOADS))
    trace.add_argument(
        "--out", default=os.path.join(harness.RESULTS_DIR, "BENCH_ledger_trace.json")
    )
    trace.add_argument("--smoke", action="store_true", help="Tier-1 test sizes")
    trace.set_defaults(handler=command_trace)

    args = parser.parse_args(argv)
    if args.command == "run" and args.reps < 1:
        parser.error("--reps must be at least 1")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
