"""Virtual-time metrics: per-key tallies, bucketed series, histograms.

The registry is the simulator's instrument panel.  Every metric is keyed
to the **virtual clock** — the only clock simulation code may read (see
DET001 and ``docs/observability.md``); wall time exists solely at the
top-level run boundary in :mod:`repro.obs.wallclock`.  That restriction
is what makes a metrics dump a *result* rather than a log: the same
campaign spec produces the same dump, byte for byte, on any machine.
:meth:`MetricsRegistry.to_dict` renders every
metric into plain JSON-able values with fully ordered keys, and
:func:`dump_to_json` serializes with sorted keys, so equal registries
produce equal bytes.

A campaign writes a registry at two doorways only —
:func:`repro.prober.campaign.run_campaign` and
``Internet.attach_observers`` — and only when it is handed one:
telemetry off is ``metrics is None``, and nothing else in the
simulator, the engine and the probers included, holds a registry.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple, Union

Number = Union[int, float]

#: A metric dump: metric name -> rendered payload (plain JSON values).
MetricDump = Dict[str, Dict[str, Any]]

#: Default virtual-time bucket width for time series: one virtual second.
DEFAULT_BUCKET_US = 1_000_000


class MetricError(ValueError):
    """Raised for inconsistent metric declarations."""


class Metric:
    """Base class: a named instrument."""

    kind = ""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def payload(self) -> Dict[str, Any]:
        """Kind-specific rendered values (JSON-able, fully ordered)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        data.update(self.payload())
        return data


class CounterMap(Metric):
    """A family of tallies keyed by a small integer (e.g. per-TTL yield)."""

    kind = "counter_map"

    __slots__ = ("values",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.values: Dict[int, Number] = {}

    def inc(self, key: int, amount: Number = 1) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def total(self) -> Number:
        return sum(self.values.values())

    def payload(self) -> Dict[str, Any]:
        return {
            "values": [[key, self.values[key]] for key in sorted(self.values)]
        }


class TimeSeries(Metric):
    """Event amounts accumulated into fixed virtual-time buckets.

    ``record(now, amount)`` adds ``amount`` to the bucket containing the
    virtual timestamp ``now``; the rendered payload is a sorted list of
    ``[bucket_start_us, value]`` points.
    """

    kind = "series"

    __slots__ = ("bucket_us", "buckets")

    def __init__(self, name: str, bucket_us: int = DEFAULT_BUCKET_US) -> None:
        super().__init__(name)
        if bucket_us < 1:
            raise MetricError("bucket_us must be >= 1: %r" % bucket_us)
        self.bucket_us = bucket_us
        self.buckets: Dict[int, Number] = {}

    def record(self, now: int, amount: Number = 1) -> None:
        bucket = (now // self.bucket_us) * self.bucket_us
        self.buckets[bucket] = self.buckets.get(bucket, 0) + amount

    def total(self) -> Number:
        return sum(self.buckets.values())

    def points(self) -> List[List[Number]]:
        return [[bucket, self.buckets[bucket]] for bucket in sorted(self.buckets)]

    def payload(self) -> Dict[str, Any]:
        return {"bucket_us": self.bucket_us, "points": self.points()}


class Histogram(Metric):
    """Value-distribution counts over fixed bounds.

    ``bounds`` are ascending upper edges; observations land in the first
    bucket whose bound is >= the value, or in the overflow bucket past
    the last bound.
    """

    kind = "histogram"

    __slots__ = ("bounds", "counts")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        super().__init__(name)
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise MetricError(
                "histogram bounds must be non-empty and strictly ascending: %r"
                % (bounds,)
            )
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def total(self) -> int:
        return sum(self.counts)

    def payload(self) -> Dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Re-requesting a name returns the existing instrument; requesting it
    with a different kind (or incompatible parameters) raises, so two
    call sites can never silently split one logical metric.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- factories -------------------------------------------------------
    def counter_map(self, name: str) -> CounterMap:
        metric = self._get(name, CounterMap)
        if metric is None:
            metric = CounterMap(name)
            self._metrics[name] = metric
        return metric

    def series(self, name: str, bucket_us: int = DEFAULT_BUCKET_US) -> TimeSeries:
        metric = self._get(name, TimeSeries)
        if metric is None:
            metric = TimeSeries(name, bucket_us)
            self._metrics[name] = metric
        elif metric.bucket_us != bucket_us:
            raise MetricError(
                "series %r already registered with bucket_us=%d (requested %d)"
                % (name, metric.bucket_us, bucket_us)
            )
        return metric

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        metric = self._get(name, Histogram)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif metric.bounds != tuple(float(bound) for bound in bounds):
            raise MetricError(
                "histogram %r already registered with bounds %r"
                % (name, metric.bounds)
            )
        return metric

    def _get(self, name: str, expected: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            return None
        if type(metric) is not expected:
            raise MetricError(
                "metric %r already registered as %s, requested as %s"
                % (name, metric.kind, expected.__name__)
            )
        return metric

    # -- inspection ------------------------------------------------------
    def to_dict(self) -> MetricDump:
        """Render every metric; key order is sorted and value rendering
        is canonical, so equal registries dump equal bytes."""
        return {name: self._metrics[name].to_dict() for name in sorted(self._metrics)}


# ---------------------------------------------------------------------------
# Dump serialization and reading.
# ---------------------------------------------------------------------------
def dump_to_json(dump: MetricDump) -> str:
    """Canonical JSON for a dump: sorted keys, no whitespace drift."""
    return json.dumps(dump, sort_keys=True, separators=(",", ": "), indent=1)


def series_points(dump: MetricDump, name: str) -> List[Tuple[int, Number]]:
    """The ``[bucket_start_us, value]`` points of a series in a dump."""
    entry = dump.get(name)
    if entry is None or entry.get("kind") != "series":
        return []
    return [(int(bucket), value) for bucket, value in entry["points"]]


def series_cumulative(dump: MetricDump, name: str) -> List[Tuple[int, Number]]:
    """Cumulative view of a series — e.g. the Figure 7 discovery curve
    reconstructed from the ``campaign.discovery`` telemetry."""
    running: Number = 0
    out: List[Tuple[int, Number]] = []
    for bucket, value in series_points(dump, name):
        running += value
        out.append((bucket, running))
    return out
