"""Hierarchical wall-clock profiling for the parallel pipeline.

The virtual-time :class:`~repro.obs.trace.Tracer` answers "where in the
simulated schedule did time go"; this module answers the *other*
question — where the **host's** time goes when a campaign runs: world
build vs. pool startup vs. shard execution vs. pickling the results
back over the pipe.  That breakdown is what turns the ROADMAP's
"profile pickle/IPC and pool startup" item into measured numbers.

A :class:`WallProfiler` mirrors the tracer's shape: nested ``phase()``
spans opened with ``with``, strictly stacked because the pipeline is
sequential in each process.  Two additions earn their keep on the hot
path:

* ``agg()`` handles — reusable aggregate accumulators for per-block
  work (``emit.craft`` runs thousands of times per campaign; recording
  one span per block would swamp the trace, so an aggregate keeps just
  count and total under the enclosing phase);
* byte accounting — ``add_bytes()`` attributes payload sizes (from
  :func:`pickled_bytes`, a counting pickler that never materializes the
  bytes) to the innermost open phase, so "how big is the IPC result
  traffic" is a first-class column, not a guess.

Worker processes build their own profiler (``CampaignSpec.profile``),
ship it home through :meth:`export` on the result, and the parent folds
the shards in with :meth:`add_worker`.  Exported views: a phase tree
with self/total time and attribution coverage (:meth:`report`), a
machine-readable dict for the run manifest's quarantined wall-clock
block (:meth:`to_profile_dict`), and Chrome-trace JSON via
:mod:`repro.obs.chrometrace`.

Determinism contract: host time is read through
:func:`repro.obs.wallclock.now`, the one allowlisted doorway (DET001
and DetSan exempt that module and nothing else).  Values flow strictly
*outward* (report, manifest ``wallclock`` section, BENCH payloads), and
profiling a campaign leaves its ``.yrp6`` dump byte-identical —
enforced by the byte-identity tests
(``tests/obs/test_profiler.py::TestPipelineContract``, the profiled-vs-plain
``cmp`` in ``tests/cli/test_cli.py::TestProfile`` and in CI) and the
profiler test suite under ``pytest --detsan``.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple

from .wallclock import now

#: One recorded span, flattened for export: (name, start_s, end_s,
#: parent index, bytes, attrs-or-None).
SpanRow = Tuple[str, float, float, int, int, Optional[Dict[str, Any]]]


class WallProfileError(ValueError):
    """Raised for malformed profiles (unclosed or misnested phases)."""


class WallSpan:
    """One named wall-clock interval."""

    __slots__ = ("name", "start_s", "end_s", "parent", "bytes", "attrs")

    def __init__(
        self,
        name: str,
        start_s: float,
        parent: int,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start_s = start_s
        #: Set on close; -1.0 while the span is open.
        self.end_s = -1.0
        #: Index of the enclosing span in the profile, or -1 for roots.
        self.parent = parent
        #: Payload bytes attributed to this span via ``add_bytes``.
        self.bytes = 0
        self.attrs = attrs

    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _PhaseHandle:
    """Context manager closing one phase span on exit."""

    __slots__ = ("_profiler", "_index")

    def __init__(self, profiler: "WallProfiler", index: int) -> None:
        self._profiler = profiler
        self._index = index

    def __enter__(self) -> "_PhaseHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler._close(self._index)


class _AggHandle:
    """Reusable accumulator: each ``with`` adds one interval to the
    aggregate keyed under the phase that was open at creation time."""

    __slots__ = ("_entry", "_started")

    def __init__(self, entry: List[float]) -> None:
        self._entry = entry
        self._started = 0.0

    def __enter__(self) -> "_AggHandle":
        self._started = now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        entry = self._entry
        entry[0] += 1
        entry[1] += now() - self._started


class _NullHandle:
    """Shared no-op for both phases and aggregates when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class WallProfiler:
    """Records nested wall-clock phases, per-phase aggregates, and
    payload byte counts for one process of the pipeline."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[WallSpan] = []
        self._stack: List[int] = []
        #: (parent span index, name) -> [count, total_seconds]
        self._aggs: Dict[Tuple[int, str], List[float]] = {}
        #: (shard, exported worker profile, pickled bytes of its outcome)
        self._workers: List[Tuple[int, Dict[str, Any], int]] = []

    # -- recording -------------------------------------------------------
    def phase(self, name: str, **attrs: Any) -> Any:
        """Open a nested phase; close it by exiting the ``with`` block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(WallSpan(name, now(), parent, attrs or None))
        self._stack.append(index)
        return _PhaseHandle(self, index)

    def agg(self, name: str) -> Any:
        """A reusable aggregate handle bound under the open phase; each
        ``with`` on it adds one interval (count + total, no span)."""
        parent = self._stack[-1] if self._stack else -1
        entry = self._aggs.setdefault((parent, name), [0.0, 0.0])
        return _AggHandle(entry)

    def add_bytes(self, count: int) -> None:
        """Attribute ``count`` payload bytes to the innermost open phase."""
        if self._stack:
            self.spans[self._stack[-1]].bytes += count

    def _close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise WallProfileError(
                "phase %d closed out of order (open stack: %r)"
                % (index, self._stack)
            )
        self._stack.pop()
        self.spans[index].end_s = now()

    # -- worker absorption ----------------------------------------------
    def add_worker(
        self, shard: int, export: Dict[str, Any], pickle_bytes: int
    ) -> None:
        """Fold one shard worker's exported profile into this one."""
        self._workers.append((shard, export, pickle_bytes))

    def export(self) -> Dict[str, Any]:
        """This process's raw profile as a compact picklable dict —
        what a shard worker attaches to its result for the parent."""
        rows: List[List[Any]] = [
            [span.name, span.start_s, span.end_s, span.parent, span.bytes,
             span.attrs]
            for span in self.spans
        ]
        aggs = [
            [key[0], key[1], int(entry[0]), entry[1]]
            for key, entry in sorted(self._aggs.items())
        ]
        return {"spans": rows, "aggs": aggs}

    def complete(self) -> bool:
        """True once every opened phase has closed — the profile is safe
        to snapshot (``run_parallel`` attaches one to its merged result
        only when its own root was the outermost phase)."""
        return not self._stack

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants: every phase closed, children
        inside their parents."""
        if self._stack:
            raise WallProfileError(
                "profile has %d unclosed phase(s)" % len(self._stack)
            )
        for index, span in enumerate(self.spans):
            if span.end_s < span.start_s:
                raise WallProfileError(
                    "phase %d (%s) ends before it starts" % (index, span.name)
                )
            if span.parent >= index:
                raise WallProfileError(
                    "phase %d (%s) references a later parent"
                    % (index, span.name)
                )

    # -- analysis --------------------------------------------------------
    def _span_rows(self) -> List[SpanRow]:
        return [
            (span.name, span.start_s, span.end_s, span.parent, span.bytes,
             span.attrs)
            for span in self.spans
        ]

    def _agg_rows(self) -> List[Tuple[int, str, int, float]]:
        return [
            (key[0], key[1], int(entry[0]), entry[1])
            for key, entry in sorted(self._aggs.items())
        ]

    def total_seconds(self) -> float:
        """Wall time covered by root phases (the profile's denominator)."""
        return sum(
            span.duration_s() for span in self.spans if span.parent == -1
        )

    def coverage(self, name: Optional[str] = None) -> float:
        """Fraction of a phase's duration attributed to named children
        (child phases plus aggregates).  ``name`` picks the first span
        with that name; default is the first root phase.  The acceptance
        bar for the pipeline is >= 0.95 at the top-level phase.
        """
        index = -1
        for i, span in enumerate(self.spans):
            if (span.name == name) if name is not None else (span.parent == -1):
                index = i
                break
        if index < 0:
            return 0.0
        duration = self.spans[index].duration_s()
        if duration <= 0.0:
            return 1.0
        attributed = sum(
            span.duration_s()
            for span in self.spans
            if span.parent == index
        )
        attributed += sum(
            entry[1]
            for key, entry in self._aggs.items()
            if key[0] == index
        )
        return min(1.0, attributed / duration)

    def phase_rows(self) -> List[Dict[str, Any]]:
        """The aggregated phase tree for this process (workers excluded):
        one row per distinct phase path, sorted so parents precede their
        children."""
        return _tree_rows(self._span_rows(), self._agg_rows())

    def to_profile_dict(self) -> Dict[str, Any]:
        """The machine-readable profile: phases, coverage, and per-shard
        worker breakdowns — the ``wallclock.profile`` manifest block and
        the BENCH ``wallclock_profile`` payload."""
        workers: List[Dict[str, Any]] = []
        for shard, export, pickle_bytes in sorted(
            self._workers, key=lambda item: item[0]
        ):
            spans = [_row_tuple(row) for row in export.get("spans", [])]
            aggs = [
                (int(row[0]), str(row[1]), int(row[2]), float(row[3]))
                for row in export.get("aggs", [])
            ]
            workers.append(
                {
                    "shard": shard,
                    "pickle_bytes": pickle_bytes,
                    "total_seconds": sum(
                        row[2] - row[1] for row in spans if row[3] == -1
                    ),
                    "phases": _tree_rows(spans, aggs),
                }
            )
        profile: Dict[str, Any] = {
            "total_seconds": self.total_seconds(),
            "coverage": self.coverage(),
            "phases": self.phase_rows(),
        }
        if workers:
            profile["workers"] = workers
            profile["pickle_bytes_total"] = sum(
                worker["pickle_bytes"] for worker in workers
            )
        return profile

    def report(self) -> str:
        """Human-readable phase tree with self/total time, attribution
        percentages, and pickled byte counts."""
        profile = self.to_profile_dict()
        total = profile["total_seconds"]
        lines = [
            "wall-clock profile: %.4fs total, %.1f%% attributed at the top "
            "phase" % (total, 100.0 * profile["coverage"])
        ]
        lines.append(_format_rows(profile["phases"], total))
        workers = profile.get("workers")
        if workers:
            lines.append(
                "workers: %d shard(s), %d bytes pickled over IPC"
                % (len(workers), profile["pickle_bytes_total"])
            )
            for worker in workers:
                lines.append(
                    "  shard %d: %.4fs, %d bytes pickled"
                    % (
                        worker["shard"],
                        worker["total_seconds"],
                        worker["pickle_bytes"],
                    )
                )
            lines.append(
                "worker phases (all shards summed; self%% of the parent's "
                "%.4fs wall, so overlap can exceed 100%%):" % total
            )
            lines.append(_format_rows(_sum_worker_rows(workers), total))
        return "\n".join(lines)


class NullWallProfiler(WallProfiler):
    """The default: every operation is a no-op."""

    enabled = False

    def phase(self, name: str, **attrs: Any) -> Any:
        return _NULL_HANDLE

    def agg(self, name: str) -> Any:
        return _NULL_HANDLE

    def add_bytes(self, count: int) -> None:
        pass

    def add_worker(
        self, shard: int, export: Dict[str, Any], pickle_bytes: int
    ) -> None:
        pass


#: Shared no-op profiler; safe to hand to any number of components.
NULL_PROFILER = NullWallProfiler()


# ---------------------------------------------------------------------------
# byte accounting


class _CountingSink:
    """A write sink that counts bytes without keeping them."""

    __slots__ = ("bytes",)

    def __init__(self) -> None:
        self.bytes = 0

    def write(self, data: bytes) -> int:
        self.bytes += len(data)
        return len(data)


def pickled_bytes(obj: Any, protocol: Optional[int] = None) -> int:
    """Size of ``pickle.dumps(obj, protocol)`` without materializing it.

    ``protocol=None`` matches :mod:`multiprocessing`'s default wire
    format, so measuring a ``ShardOutcome`` here reports the bytes the
    pool actually pushed through its pipe (modulo framing overhead).
    Deterministic for a fixed object graph.
    """
    sink = _CountingSink()
    pickle.Pickler(sink, protocol).dump(obj)
    return sink.bytes


# ---------------------------------------------------------------------------
# tree aggregation (shared by the parent profile and worker exports)


def _row_tuple(row: List[Any]) -> SpanRow:
    return (
        str(row[0]),
        float(row[1]),
        float(row[2]),
        int(row[3]),
        int(row[4]),
        row[5],
    )


def _tree_rows(
    spans: List[SpanRow], aggs: List[Tuple[int, str, int, float]]
) -> List[Dict[str, Any]]:
    """Aggregate spans + aggs into one row per phase *path*.

    ``self_seconds`` is a span's duration minus its children's and its
    attached aggregates' totals — host time spent in the phase's own
    code.  Sorted by path components, so a parent row always precedes
    its children.
    """
    paths: List[str] = []
    child_time = [0.0] * len(spans)
    agg_time = [0.0] * len(spans)
    for parent, _, _, total in aggs:
        if 0 <= parent < len(spans):
            agg_time[parent] += total
    for name, start, end, parent, _, _ in spans:
        paths.append(name if parent < 0 else paths[parent] + "/" + name)
        if parent >= 0:
            child_time[parent] += end - start
    rows: Dict[str, List[float]] = {}
    for index, (name, start, end, parent, byte_count, _) in enumerate(spans):
        duration = end - start
        row = rows.setdefault(paths[index], [0.0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time[index] - agg_time[index]
        row[3] += byte_count
    for parent, name, count, total in aggs:
        path = paths[parent] + "/" + name if 0 <= parent < len(paths) else name
        row = rows.setdefault(path, [0.0, 0.0, 0.0, 0.0])
        row[0] += count
        row[1] += total
        row[2] += total
    return [
        {
            "path": path,
            "count": int(rows[path][0]),
            "total_seconds": rows[path][1],
            "self_seconds": rows[path][2],
            "bytes": int(rows[path][3]),
        }
        for path in sorted(rows, key=_path_key)
    ]


def _path_key(path: str) -> List[str]:
    return path.split("/")


def _format_rows(rows: List[Dict[str, Any]], total: float) -> str:
    """Aligned text table for a phase-row list; ``total`` scales self%."""
    width = max([24] + [
        2 * row["path"].count("/") + len(_leaf(row["path"])) for row in rows
    ])
    lines = [
        "%-*s  %7s  %10s  %10s  %6s  %10s"
        % (width, "phase", "count", "total(s)", "self(s)", "self%", "bytes")
    ]
    for row in rows:
        depth = row["path"].count("/")
        share = 100.0 * row["self_seconds"] / total if total > 0 else 0.0
        lines.append(
            "%-*s  %7d  %10.4f  %10.4f  %5.1f%%  %10s"
            % (
                width,
                "  " * depth + _leaf(row["path"]),
                row["count"],
                row["total_seconds"],
                row["self_seconds"],
                share,
                str(row["bytes"]) if row["bytes"] else "-",
            )
        )
    return "\n".join(lines)


def _leaf(path: str) -> str:
    return path.rsplit("/", 1)[-1]


def _sum_worker_rows(workers: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Worker phase rows summed across shards (path-aligned)."""
    merged: Dict[str, List[float]] = {}
    for worker in workers:
        for row in worker["phases"]:
            entry = merged.setdefault(row["path"], [0.0, 0.0, 0.0, 0.0])
            entry[0] += row["count"]
            entry[1] += row["total_seconds"]
            entry[2] += row["self_seconds"]
            entry[3] += row["bytes"]
    return [
        {
            "path": path,
            "count": int(merged[path][0]),
            "total_seconds": merged[path][1],
            "self_seconds": merged[path][2],
            "bytes": int(merged[path][3]),
        }
        for path in sorted(merged, key=_path_key)
    ]
