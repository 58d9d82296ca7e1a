"""Run repetitions in fresh children, aggregate, check, build payloads.

Children are started one at a time, never concurrently, each with
``PYTHONHASHSEED=0``; the parent sleeps in ``wait`` while a child runs,
so on the 2-core reference host the only workers are the child's own.

Correctness: every repetition's ``sim`` block must equal the first
repetition's, and — at the pinned seed and sizes — ``expected.json``.
An operation whose block differs, that raised, or whose child crashed is
a failed operation and counts in ``fail_ratio``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import wallclock

from .calibrate import host_speed
from .workloads import SIZES, WORKLOADS, probes_sent

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
EXPECTED_PATH = os.path.join(LEDGER_DIR, "expected.json")
#: Everything a run writes (traces, default payloads, scratch files) goes
#: here: git-ignored, and inside the checkout as the contract requires.
RESULTS_DIR = os.path.join(LEDGER_DIR, "results")

#: Seed whose ``sim`` blocks are pinned in ``expected.json``.
PINNED_SEED = 2018

#: name -> (unit, better, bound): the end-to-end metrics of every workload.
#: ``bound`` is the share of the baseline median a metric may worsen by;
#: two sets of ten runs on a host running 1.4-1.6x slow spread up to 11 %
#: in the calibrated time metrics (1 % in RSS), hence a quarter.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "probes_per_s": ("probes/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: Repetitions a run stops at even if ``--seconds`` are not yet measured.
MAX_REPS = 12

#: A child gets this long before its process group is killed (the
#: benchmark contract allows one run 180 s in all).
CHILD_TIMEOUT_S = 150.0

Report = Dict[str, Any]


def run_child(
    workload: str,
    seed: int,
    sizes: str = "full",
    trace_dir: Optional[str] = None,
) -> Optional[Report]:
    """One child, waited for; ``None`` if it crashed or printed no result.

    ``trace_dir`` selects the traced per-layer suite and is where the
    child writes its Chrome traces.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "benchmarks.ledger.child",
        "--workload", workload, "--seed", str(seed), "--sizes", sizes,
        "--spawned-at", repr(wallclock.now()),
    ]
    if trace_dir is not None:
        command += ["--trace", "--trace-dir", trace_dir]
    # Own session: a timed-out child takes its pool workers down with it.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print("ledger: %s child timed out" % workload, file=sys.stderr)
        return None
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(
            "ledger: %s child exited %d without a result" % (workload, child.returncode),
            file=sys.stderr,
        )
        return None
    try:
        report = json.loads(lines[-1])
    except ValueError:
        print("ledger: %s child printed no JSON result" % workload, file=sys.stderr)
        return None
    return report if isinstance(report, dict) else None


def scratch_dir() -> "tempfile.TemporaryDirectory[str]":
    """A temp dir under ``results/``, removed on exit from the ``with``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="scratch-", dir=RESULTS_DIR)


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as source:
        return json.load(source)


def pinned_sim(
    expected: Dict[str, Any], workload: str, seed: int, sizes: str
) -> Optional[Dict[str, Any]]:
    """The pinned ``sim`` block, when ``expected`` covers this run."""
    if expected.get("seed") != seed or expected.get("sizes") != sizes:
        return None
    return expected.get("sim", {}).get(workload)


def count_operations(
    reports: Sequence[Optional[Report]], pinned: Optional[Dict[str, Any]]
) -> Tuple[int, int]:
    """(attempted, failed) operations over the repetitions.

    A crashed child is one failed operation (how many it would have run
    is unknowable).  Otherwise each operation of each pass is compared
    with the pinned block when there is one, else with the first pass's.
    """
    reference = pinned
    attempted = failed = 0
    for report in reports:
        if report is None:
            attempted += 1
            failed += 1
            continue
        for timed in report["passes"]:
            sim = timed["sim"]
            if reference is None:
                reference = sim
            for name, block in sim.items():
                attempted += 1
                if "error" in block or block != reference.get(name):
                    failed += 1
            # An operation the reference has and this pass lost.
            missing = len(set(reference) - set(sim))
            attempted += missing
            failed += missing
    return attempted, failed


def calibrated(timed: Dict[str, Any], seconds: Sequence[float]) -> float:
    """Per-operation ``seconds`` of one pass at reference host speed: each
    operation divided by the speed its two bracketing spins saw."""
    spins = timed["spins"]
    return sum(
        value / host_speed(spins[i], spins[i + 1]) for i, value in enumerate(seconds)
    )


def child_metrics(report: Report) -> Dict[str, float]:
    """One repetition's end-to-end metrics, in calibrated seconds: the
    median over its passes, and its one set-up.  ``raw_wall_s`` and
    ``host_speed`` keep what the clock read."""
    passes = report["passes"]
    walls = [calibrated(timed, timed["walls"]) for timed in passes]
    wall_s = statistics.median(walls)
    return {
        "setup_s": calibrated(report["setup"], report["setup"]["walls"]),
        "wall_s": wall_s,
        "cpu_s": statistics.median(calibrated(timed, timed["cpus"]) for timed in passes),
        "probes_per_s": probes_sent(passes[0]["sim"]) / wall_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "raw_wall_s": statistics.median(sum(timed["walls"]) for timed in passes),
        "host_speed": statistics.median(
            sum(timed["walls"]) / wall for timed, wall in zip(passes, walls)
        ),
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, range and count of one metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "n": len(values),
    }


def summarize(
    workload: str,
    reports: Sequence[Optional[Report]],
    pinned: Optional[Dict[str, Any]],
) -> Report:
    """One workload's ledger entry from its repetitions."""
    good = [child_metrics(report) for report in reports if report is not None]
    attempted, failed = count_operations(reports, pinned)
    sims = [report["passes"][0]["sim"] for report in reports if report is not None]
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "pinned": pinned is not None,
        "metrics": {
            name: spread([report[name] for report in good]) for name in END_TO_END
        } if good else {},
        # Uncalibrated context: what the clock read, and how busy the host was.
        "raw": {
            name: statistics.median(report[name] for report in good)
            for name in ("raw_wall_s", "host_speed")
        } if good else {},
        "sim": sims[0] if sims else {},
    }


def run_workload(
    workload: str,
    seed: int,
    sizes: str = "full",
    reps: int = 5,
    seconds: float = 0.0,
    expected_path: Optional[str] = EXPECTED_PATH,
) -> Report:
    """Repeat ``workload`` in fresh children: at least ``reps`` times, and
    until ``seconds`` of timed region have been measured.  With no
    ``expected_path`` the ``sim`` blocks are only checked against each other."""
    if workload not in WORKLOADS or sizes not in SIZES:
        raise ValueError("unknown workload or sizes: %r, %r" % (workload, sizes))
    reports: List[Optional[Report]] = []
    measured = 0.0
    while len(reports) < reps or (measured < seconds and len(reports) < MAX_REPS):
        report = run_child(workload, seed, sizes)
        reports.append(report)
        if report is None and len(reports) >= reps:
            break  # a crashing workload must not spin until MAX_REPS
        if report is not None:
            measured += sum(sum(timed["walls"]) for timed in report["passes"])
    pinned = None
    if expected_path is not None:
        pinned = pinned_sim(load_expected(expected_path), workload, seed, sizes)
    return summarize(workload, reports, pinned)


def format_entry(entry: Report) -> str:
    """Every metric of one workload by name, with its unit."""
    lines = [
        "%s: %d/%d operations ok%s"
        % (
            entry["workload"],
            entry["attempted"] - entry["failed"],
            entry["attempted"],
            " (sim pinned)" if entry["pinned"] else " (sim checked across repetitions)",
        )
    ]
    for name, stats in entry["metrics"].items():
        lines.append(
            "  %-14s %12.4f %-9s (min %.4f, q1 %.4f, q3 %.4f, max %.4f, n=%d)"
            % (name, stats["value"], END_TO_END[name][0], stats["min"],
               stats["q1"], stats["q3"], stats["max"], stats["n"])
        )
    lines.append("  %-14s %12.4f failed/attempted" % ("fail_ratio", entry["fail_ratio"]))
    if entry["raw"]:
        lines.append(
            "  (uncalibrated wall %.4f s at host speed %.2fx the reference)"
            % (entry["raw"]["raw_wall_s"], entry["raw"]["host_speed"])
        )
    return "\n".join(lines)
