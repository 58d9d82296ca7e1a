"""One repetition of one workload, in a fresh interpreter.

``python -m benchmarks.ledger.child --workload W --seed N --sizes S
--spawned-at T`` prepares the workload (untimed), repeats its timed
region — every pass from fresh simulator state — and prints one JSON
object as the last line of stdout.  With ``--trace`` it runs the
per-layer traced suite instead (:mod:`.layers`).

Raw seconds are reported per operation with the calibration spins that
bracket it (:mod:`.calibrate`); the parent does the arithmetic.  Set-up
runs from the parent's spawn timestamp — interpreter start, imports,
world build, target draw — to the end of ``prepare``, less the spins;
both ends read ``repro.obs.wallclock`` (the system-wide monotonic clock).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import wallclock

from .calibrate import spin
from .harness import scratch_dir
from .workloads import SIZES, WORKLOADS, Pass


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def run_once(name: str, seed: int, sizes_name: str, spawned_at: float) -> Dict[str, Any]:
    """Set up once, then repeat the timed region (fresh state each pass)."""
    workload = WORKLOADS[name]
    sizes = SIZES[sizes_name]
    passes: List[Dict[str, Any]] = []
    measured = 0.0
    peak_rss_mb = 0.0
    with scratch_dir() as scratch:
        # Set-up is two timed parts, each beside a spin: interpreter start
        # and imports (up to here), then the workload's prepare.
        imports_s = wallclock.now() - spawned_at
        before = spin()
        started = wallclock.now()
        inputs = workload.prepare(sizes, seed, scratch)
        prepare_s = wallclock.now() - started
        setup = {"walls": [imports_s, prepare_s], "spins": [before, before, spin()]}
        while len(passes) < sizes.min_passes or measured < sizes.pass_seconds:
            this = Pass(calibrated=True)
            workload.run(inputs, this)
            if not passes:
                # After one pass, as a single-campaign user would see it:
                # later passes only add allocator fragmentation.
                peak_rss_mb = peak_rss_mib()
            passes.append(
                {"walls": this.walls, "cpus": this.cpus, "spins": this.spins,
                 "sim": this.sim()}
            )
            measured += sum(this.walls)
    return {"setup": setup, "peak_rss_mb": peak_rss_mb, "passes": passes}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", default="full", choices=sorted(SIZES))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    if args.trace:
        from .layers import run_traced

        report = run_traced(args.workload, args.seed, args.sizes, args.trace_dir)
    else:
        report = run_once(args.workload, args.seed, args.sizes, args.spawned_at)
    sys.stdout.flush()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
