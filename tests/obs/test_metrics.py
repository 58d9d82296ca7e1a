"""Metrics registry semantics: instruments, dumps, scopes, merging."""

import pytest

from repro.obs import (
    NULL_REGISTRY,
    SCOPE_MERGE,
    SCOPE_RUN,
    MetricError,
    MetricsRegistry,
    dump_to_json,
    merge_dumps,
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
        assert counter.to_dict() == {"kind": "counter", "scope": "merge", "value": 4}

    def test_gauge_tracks_extremes_and_is_run_scoped(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        for value in (5, 2, 9):
            gauge.set(value)
        payload = gauge.to_dict()
        assert payload["scope"] == SCOPE_RUN
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

    def test_unknown_scope_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("x", scope="global")


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

    def test_dump_can_exclude_run_scoped(self):
        registry = MetricsRegistry()
        registry.counter("merged")
        registry.counter("local", scope=SCOPE_RUN)
        registry.gauge("depth")
        assert set(registry.to_dict()) == {"merged", "local", "depth"}


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


def shard_dump(sent, ttl_counts, points, hist_counts):
    registry = MetricsRegistry()
    registry.counter("sent").inc(sent)
    ttls = registry.counter_map("ttl")
    for key, amount in ttl_counts:
        ttls.inc(key, amount)
    series = registry.series("rate", bucket_us=1000)
    for now, amount in points:
        series.record(now, amount)
    hist = registry.histogram("levels", bounds=(1.0, 5.0))
    hist.counts[:] = hist_counts
    registry.counter("local", scope=SCOPE_RUN).inc(99)
    registry.gauge("depth").set(7)
    return registry.to_dict()


class TestMerge:
    def test_sums_by_kind_and_drops_run_scope(self):
        merged = merge_dumps(
            [
                shard_dump(3, [(1, 2)], [(0, 1), (1500, 2)], [1, 0, 0]),
                shard_dump(4, [(1, 1), (9, 5)], [(1700, 3)], [0, 2, 1]),
            ]
        )
        assert set(merged) == {"sent", "ttl", "rate", "levels"}
        assert merged["sent"]["value"] == 7
        assert merged["ttl"]["values"] == [[1, 3], [9, 5]]
        assert merged["rate"]["points"] == [[0, 1], [1000, 5]]
        assert merged["levels"]["counts"] == [1, 2, 1]

    def test_merge_does_not_mutate_inputs(self):
        first = shard_dump(3, [(1, 2)], [(0, 1)], [1, 0, 0])
        second = shard_dump(4, [(1, 1)], [(0, 2)], [0, 1, 0])
        before = dump_to_json(first)
        merge_dumps([first, second])
        assert dump_to_json(first) == before

    def test_merge_of_one_equals_its_merge_view(self):
        dump = shard_dump(3, [(1, 2)], [(0, 1)], [1, 0, 0])
        merged = merge_dumps([dump])
        assert set(merged) == {"sent", "ttl", "rate", "levels"}
        assert merged["sent"] == dump["sent"]

    def test_kind_conflict_raises(self):
        left = {"m": {"kind": "counter", "scope": SCOPE_MERGE, "value": 1}}
        right = {
            "m": {
                "kind": "series",
                "scope": SCOPE_MERGE,
                "bucket_us": 1000,
                "points": [],
            }
        }
        with pytest.raises(MetricError):
            merge_dumps([left, right])

    def test_bucket_width_conflict_raises(self):
        def series_entry(bucket_us):
            return {
                "m": {
                    "kind": "series",
                    "scope": SCOPE_MERGE,
                    "bucket_us": bucket_us,
                    "points": [[0, 1]],
                }
            }

        with pytest.raises(MetricError):
            merge_dumps([series_entry(1000), series_entry(2000)])

    def test_bounds_conflict_raises(self):
        def hist_entry(bounds):
            return {
                "m": {
                    "kind": "histogram",
                    "scope": SCOPE_MERGE,
                    "bounds": bounds,
                    "counts": [0] * (len(bounds) + 1),
                }
            }

        with pytest.raises(MetricError):
            merge_dumps([hist_entry([1.0]), hist_entry([2.0])])

    def test_unmergeable_kind_raises(self):
        entry = {"m": {"kind": "mystery", "scope": SCOPE_MERGE}}
        with pytest.raises(MetricError):
            merge_dumps([entry, entry])


class TestSeriesViews:
    def test_points_and_cumulative(self):
        dump = shard_dump(0, [], [(0, 2), (1200, 1), (2400, 4)], [0, 0, 0])
        assert series_points(dump, "rate") == [(0, 2), (1000, 1), (2000, 4)]
        assert series_cumulative(dump, "rate") == [(0, 2), (1000, 3), (2000, 7)]

    def test_missing_or_wrong_kind_is_empty(self):
        dump = shard_dump(1, [], [], [0, 0, 0])
        assert series_points(dump, "nope") == []
        assert series_points(dump, "sent") == []
        assert series_cumulative(dump, "nope") == []
