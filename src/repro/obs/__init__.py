"""Observability: virtual-time metrics, wall-clock profiles, and run manifests.

The simulator measures itself the same way it measures the paper's
probers — on the virtual clock.  :mod:`~repro.obs.metrics` carries the
metrics registry, :mod:`~repro.obs.profiler` records where the host's
time went, :mod:`~repro.obs.manifest` writes the per-run JSON
manifest, and :mod:`~repro.obs.wallclock` is the one allowlisted place
host time may be read (reporting only).  See ``docs/observability.md``.
"""

from .manifest import (
    MANIFEST_FORMAT,
    Manifest,
    ManifestError,
    build_manifest,
    deterministic_view,
    manifest_dumps,
    read_manifest,
    write_manifest,
)
from .metrics import (
    DEFAULT_BUCKET_US,
    CounterMap,
    Histogram,
    MetricDump,
    MetricError,
    MetricsRegistry,
    TimeSeries,
    dump_to_json,
    series_cumulative,
    series_points,
)
from .chrometrace import chrome_trace, trace_events, write_chrome_trace
from .profiler import (
    NULL_PROFILER,
    NullWallProfiler,
    WallProfileError,
    WallProfiler,
    WallSpan,
)
from .wallclock import Stopwatch

__all__ = [
    "CounterMap",
    "DEFAULT_BUCKET_US",
    "Histogram",
    "MANIFEST_FORMAT",
    "Manifest",
    "ManifestError",
    "MetricDump",
    "MetricError",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NullWallProfiler",
    "Stopwatch",
    "TimeSeries",
    "WallProfileError",
    "WallProfiler",
    "WallSpan",
    "build_manifest",
    "chrome_trace",
    "deterministic_view",
    "dump_to_json",
    "manifest_dumps",
    "read_manifest",
    "series_cumulative",
    "series_points",
    "trace_events",
    "write_chrome_trace",
    "write_manifest",
]
