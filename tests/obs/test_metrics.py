"""Metrics registry semantics: instruments and dumps."""

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricError,
    MetricsRegistry,
    dump_to_json,
    series_cumulative,
    series_points,
)


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("sent")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        assert counter.to_dict() == {"kind": "counter", "value": 4}

    def test_gauge_tracks_extremes(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        for value in (5, 2, 9):
            gauge.set(value)
        payload = gauge.to_dict()
        assert (payload["last"], payload["min"], payload["max"]) == (9, 2, 9)
        assert payload["samples"] == 3

    def test_counter_map_sorted_rendering(self):
        registry = MetricsRegistry()
        yields = registry.counter_map("ttl_yield")
        yields.inc(7)
        yields.inc(2, 5)
        yields.inc(7)
        assert yields.total() == 7
        assert yields.to_dict()["values"] == [[2, 5], [7, 2]]

    def test_series_buckets_by_virtual_time(self):
        registry = MetricsRegistry()
        series = registry.series("sent", bucket_us=1000)
        series.record(0)
        series.record(999)
        series.record(1000)
        series.record(2500, amount=4)
        assert series.to_dict()["points"] == [[0, 2], [1000, 1], [2000, 4]]
        assert series.total() == 7

    def test_series_rejects_bad_bucket(self):
        with pytest.raises(MetricError):
            MetricsRegistry().series("x", bucket_us=0)

    def test_histogram_edges_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("levels", bounds=(1.0, 5.0))
        for value in (0.0, 1.0, 1.1, 5.0, 99.0):
            hist.observe(value)
        assert hist.to_dict()["counts"] == [2, 2, 1]
        assert hist.total() == 5

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("x", bounds=())
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("x", bounds=(5.0, 1.0))
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("x", bounds=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.series("s", bucket_us=500) is registry.series(
            "s", bucket_us=500
        )

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(MetricError):
            registry.gauge("a")

    def test_series_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.series("s", bucket_us=500)
        with pytest.raises(MetricError):
            registry.series("s", bucket_us=1000)

    def test_histogram_bounds_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_dump_is_sorted_and_byte_stable(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("zeta").inc()
            registry.series("alpha").record(0)
            registry.counter_map("mid").inc(3)
            return registry

        assert list(build().to_dict()) == ["alpha", "mid", "zeta"]
        assert dump_to_json(build().to_dict()) == dump_to_json(build().to_dict())


class TestNullRegistry:
    def test_disabled_and_empty(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.to_dict() == {}

    def test_instruments_are_shared_noops(self):
        counter = NULL_REGISTRY.counter("a")
        assert counter is NULL_REGISTRY.counter("b")
        counter.inc()
        assert counter.value == 0
        series = NULL_REGISTRY.series("s")
        series.record(123)
        assert series.total() == 0
        gauge = NULL_REGISTRY.gauge("g")
        gauge.set(9)
        assert gauge.samples == 0
        hist = NULL_REGISTRY.histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        assert hist.total() == 0
        cmap = NULL_REGISTRY.counter_map("m")
        cmap.inc(1)
        assert cmap.total() == 0


class TestSeriesViews:
    def test_points_and_cumulative(self):
        registry = MetricsRegistry()
        series = registry.series("rate", bucket_us=1000)
        for now, amount in [(0, 2), (1200, 1), (2400, 4)]:
            series.record(now, amount)
        dump = registry.to_dict()
        assert series_points(dump, "rate") == [(0, 2), (1000, 1), (2000, 4)]
        assert series_cumulative(dump, "rate") == [(0, 2), (1000, 3), (2000, 7)]

    def test_missing_or_wrong_kind_is_empty(self):
        registry = MetricsRegistry()
        registry.counter("sent").inc()
        dump = registry.to_dict()
        assert series_points(dump, "nope") == []
        assert series_points(dump, "sent") == []
        assert series_cumulative(dump, "nope") == []
