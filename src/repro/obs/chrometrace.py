"""Chrome ``trace_event`` export for wall-clock profiles.

Converts a :class:`~repro.obs.profiler.WallProfiler` — parent phases
plus absorbed shard-worker exports — into the JSON object format that
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly: complete events (``"ph": "X"``) with microsecond timestamps
and durations, one track per process.

The parent renders as pid 0; shard workers render as pid ``shard + 1``,
with metadata events naming each track.  Timestamps are the profiler's
raw ``time.perf_counter()`` readings rebased to the earliest span.  On
Linux (and macOS) ``perf_counter`` is a boot-relative monotonic clock
shared by fork children, so parent and worker spans line up on one
timeline; under a spawn start method the clocks still share an epoch on
those platforms, but the alignment guarantee is per-OS, not universal —
treat cross-process skew under exotic start methods as cosmetic.

Like every wall-clock view, the trace file is reporting-only output:
nothing in the simulation reads it back (it is written after the run,
and a profiled run's ``.yrp6`` is ``cmp``'d against a plain one's), and
its bytes are host-dependent by nature — never compare traces for
determinism.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .profiler import WallProfiler


def _complete_event(
    name: str,
    start_s: float,
    end_s: float,
    epoch_s: float,
    pid: int,
    args: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "ph": "X",
        "name": name,
        "cat": "wallclock",
        "ts": (start_s - epoch_s) * 1e6,
        "dur": max(0.0, end_s - start_s) * 1e6,
        "pid": pid,
        "tid": 0,
        "args": args,
    }


def _metadata_event(pid: int, label: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": "process_name",
        "pid": pid,
        "tid": 0,
        "args": {"name": label},
    }


def trace_events(profiler: WallProfiler) -> List[Dict[str, Any]]:
    """The profile as a flat ``traceEvents`` list."""
    tracks: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    starts: List[float] = []

    if profiler.spans:
        tracks.append(_metadata_event(0, "parent"))
    for span in profiler.spans:
        args: Dict[str, Any] = dict(span.attrs) if span.attrs else {}
        if span.bytes:
            args["bytes"] = span.bytes
        starts.append(span.start_s)
        spans.append(
            _complete_event(span.name, span.start_s, span.end_s, 0.0, 0, args)
        )
    for shard, export, pickle_bytes in sorted(
        profiler._workers, key=lambda item: item[0]
    ):
        pid = shard + 1
        tracks.append(_metadata_event(pid, "shard %d worker" % shard))
        for row in export.get("spans", []):
            name, start_s, end_s, _, byte_count, attrs = row
            args = dict(attrs) if attrs else {}
            if byte_count:
                args["bytes"] = byte_count
            if pickle_bytes:
                args.setdefault("shard_pickle_bytes", pickle_bytes)
            starts.append(float(start_s))
            spans.append(
                _complete_event(
                    str(name), float(start_s), float(end_s), 0.0, pid, args
                )
            )
    epoch_us = min(starts) * 1e6 if starts else 0.0
    for event in spans:
        event["ts"] -= epoch_us
    return tracks + spans


def chrome_trace(profiler: WallProfiler) -> Dict[str, Any]:
    """The full Chrome/Perfetto trace document."""
    return {
        "traceEvents": trace_events(profiler),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path: str, profiler: WallProfiler) -> str:
    """Write the Perfetto-loadable JSON trace to ``path``; returns it."""
    with open(path, "w") as sink:
        json.dump(chrome_trace(profiler), sink, indent=1, sort_keys=True)
        sink.write("\n")
    return path
