"""WallProfiler — hierarchical wall-clock phases, aggregates, byte
accounting, worker absorption, and the observe-only contract (profiling
a campaign never changes its bytes)."""

import pickle

import pytest

from repro.netsim import Internet, InternetConfig, build_internet, decoupled_dynamics
from repro.obs import profiler
from repro.obs.profiler import (
    NULL_PROFILER,
    NullWallProfiler,
    WallProfileError,
    WallProfiler,
)
from repro.prober import CampaignSpec, run_campaign, run_parallel, run_single
from repro.prober.output import dumps


class TestRecording:
    def test_nested_phases_record_a_tree(self):
        prof = WallProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
            with prof.phase("inner"):
                pass
        prof.validate()
        assert [span.name for span in prof.spans] == ["outer", "inner", "inner"]
        assert [span.parent for span in prof.spans] == [-1, 0, 0]
        assert all(span.end_s >= span.start_s for span in prof.spans)
        assert prof.complete()

    def test_phase_rows_aggregate_by_path(self):
        prof = WallProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
            with prof.phase("inner"):
                pass
        rows = {row["path"]: row for row in prof.phase_rows()}
        assert set(rows) == {"outer", "outer/inner"}
        assert rows["outer/inner"]["count"] == 2
        assert rows["outer"]["count"] == 1
        # self = total minus children, never negative beyond float noise.
        assert rows["outer"]["self_seconds"] == pytest.approx(
            rows["outer"]["total_seconds"] - rows["outer/inner"]["total_seconds"]
        )

    def test_agg_accumulates_count_and_total_under_open_phase(self):
        prof = WallProfiler()
        with prof.phase("run"):
            handle = prof.agg("block")
            for _ in range(5):
                with handle:
                    pass
        rows = {row["path"]: row for row in prof.phase_rows()}
        assert rows["run/block"]["count"] == 5
        assert rows["run/block"]["total_seconds"] >= 0.0
        assert len(prof.spans) == 1  # aggregates never add spans

    def test_a_nested_aggregate_leaves_its_enclosing_aggregates_self_time(
        self, monkeypatch
    ):
        ticks = iter(range(100))
        monkeypatch.setattr(profiler, "now", lambda: float(next(ticks)))
        prof = WallProfiler()
        with prof.phase("run"):  # 0
            craft = prof.agg("craft")
            answer = prof.agg("answer", within="craft")
            with craft:  # 1
                with answer:  # 2
                    pass  # 3
                with answer:  # 4
                    pass  # 5
            # 6: craft took 5 s, 2 of them answering
        # 7
        rows = {row["path"]: row for row in prof.phase_rows()}
        assert [(rows[path]["total_seconds"], rows[path]["self_seconds"])
                for path in ("run", "run/craft", "run/answer")] == [(7, 2), (5, 3), (2, 2)]
        assert rows["run/answer"]["count"] == 2
        # Counted once: the phase's children cover craft's 5 of its 7 s.
        assert prof.coverage() == pytest.approx(5 / 7)
        # A shard's export carries the nesting home.
        parent = WallProfiler()
        parent.add_worker(0, pickle.loads(pickle.dumps(prof.export())), 0)
        (worker,) = parent.to_profile_dict()["workers"]
        assert worker["phases"] == prof.phase_rows()

    def test_add_bytes_goes_to_innermost_open_phase(self):
        prof = WallProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                prof.add_bytes(100)
            prof.add_bytes(7)
        assert prof.spans[1].bytes == 100
        assert prof.spans[0].bytes == 7

    def test_misnested_close_raises(self):
        prof = WallProfiler()
        outer = prof.phase("outer")
        prof.phase("inner")
        with pytest.raises(WallProfileError):
            outer.__exit__(None, None, None)

    def test_validate_rejects_unclosed_phases(self):
        prof = WallProfiler()
        prof.phase("open")
        assert not prof.complete()
        with pytest.raises(WallProfileError):
            prof.validate()

    def test_attrs_are_kept_on_the_span(self):
        prof = WallProfiler()
        with prof.phase("shard.run", shard=2, shards=4):
            pass
        assert prof.spans[0].attrs == {"shard": 2, "shards": 4}


class TestNullProfiler:
    def test_every_operation_is_a_noop(self):
        prof = NULL_PROFILER
        assert not prof.enabled
        with prof.phase("x"):
            with prof.agg("y"):
                prof.add_bytes(10)
        prof.add_worker(0, {}, 0)
        assert prof.spans == []
        assert prof.total_seconds() == 0.0

    def test_null_handles_are_shared(self):
        prof = NullWallProfiler()
        assert prof.phase("a") is prof.agg("b")


class TestAnalysis:
    def test_total_seconds_sums_roots(self):
        prof = WallProfiler()
        with prof.phase("a"):
            pass
        with prof.phase("b"):
            pass
        assert prof.total_seconds() == pytest.approx(
            prof.spans[0].duration_s() + prof.spans[1].duration_s()
        )

    def test_coverage_counts_children_and_aggs(self):
        prof = WallProfiler()
        with prof.phase("root"):
            with prof.phase("child"):
                pass
            with prof.agg("blocks"):
                pass
        assert 0.0 < prof.coverage() <= 1.0
        assert prof.coverage("root") == prof.coverage()
        assert prof.coverage("no-such-phase") == 0.0

    def test_export_and_absorb_round_trip(self):
        worker = WallProfiler()
        with worker.phase("shard.run", shard=1):
            with worker.agg("emit"):
                pass
            worker.add_bytes(11)
        worker.validate()
        export = worker.export()
        # The export is exactly what crosses the pipe: picklable.
        export = pickle.loads(pickle.dumps(export))

        parent = WallProfiler()
        with parent.phase("parallel"):
            pass
        parent.add_worker(1, export, 321)
        profile = parent.to_profile_dict()
        assert profile["pickle_bytes_total"] == 321
        (worker_entry,) = profile["workers"]
        assert worker_entry["shard"] == 1
        paths = {row["path"] for row in worker_entry["phases"]}
        assert paths == {"shard.run", "shard.run/emit"}
        assert worker_entry["total_seconds"] == pytest.approx(
            worker.spans[0].duration_s()
        )

    def test_report_renders_phases_and_workers(self):
        prof = WallProfiler()
        with prof.phase("parallel"):
            with prof.phase("pickle"):
                prof.add_bytes(1234)
        worker = WallProfiler()
        with worker.phase("shard.run"):
            pass
        prof.add_worker(0, worker.export(), 1234)
        text = prof.report()
        assert "parallel" in text
        assert "pickle" in text
        assert "1234" in text
        assert "shard 0" in text
        assert "self%" in text

    def test_to_profile_dict_without_workers_has_no_worker_keys(self):
        prof = WallProfiler()
        with prof.phase("probe"):
            pass
        profile = prof.to_profile_dict()
        assert "workers" not in profile
        assert "pickle_bytes_total" not in profile
        assert profile["coverage"] <= 1.0


def small_spec():
    config = decoupled_dynamics(
        InternetConfig(
            seed=11,
            n_edge=6,
            n_tier2=3,
            n_cpe_isps=1,
            cpe_customers_per_isp=12,
        )
    )
    built = build_internet(config)
    targets = tuple(
        subnet.prefix.base | 1 for subnet in built.truth.subnets.values()
    )[:30]
    return CampaignSpec(
        internet=config,
        vantage="US-EDU-1",
        targets=targets,
        pps=900.0,
    )


class TestPipelineContract:
    """The acceptance bar: profiling attributes >= 95% of the pipeline's
    wall time to named phases and never changes the campaign's bytes."""

    def test_profiled_parallel_run_is_byte_identical(self):
        spec = small_spec()
        prof = WallProfiler()
        profiled = run_parallel(spec, shards=4, processes=1, profiler=prof)
        plain = run_parallel(spec, shards=4, processes=1)
        assert dumps(profiled) == dumps(plain)
        assert dumps(profiled) == dumps(run_single(spec))

    def test_serial_shards_profile_attaches_and_covers(self):
        spec = small_spec()
        prof = WallProfiler()
        merged = run_parallel(spec, shards=4, processes=1, profiler=prof)
        prof.validate()
        assert prof.coverage("parallel") >= 0.95
        profile = merged.wall_profile
        assert profile is not None
        paths = {row["path"] for row in profile["phases"]}
        assert "parallel" in paths
        assert "parallel/shard.run" in paths
        assert "parallel/merge" in paths
        assert "parallel/shard.run/campaign.run/emit.craft" in paths

    @pytest.mark.parametrize("prober", ["yarrp6", "sequential"])
    def test_each_probes_answer_is_named_and_counted_once(self, prober):
        """Both loops time ``Internet.answer`` as ``net.answer``; on the
        block loop it runs inside ``emit.craft`` and leaves its self time."""
        spec = small_spec()
        world = Internet.from_config(spec.internet)
        prof = WallProfiler()
        result = run_campaign(world, spec.vantage, spec.targets, prober, profiler=prof)
        assert dumps(result) == dumps(
            run_campaign(Internet(world.built), spec.vantage, spec.targets, prober)
        )
        rows = {row["path"]: row for row in prof.phase_rows()}
        answer = rows.pop("campaign.run/net.answer")
        assert answer["count"] == result.sent
        run = rows.pop("campaign.run")
        children = [row for path, row in rows.items() if path.startswith("campaign.run/")]
        assert bool(children) == (prober == "yarrp6")
        if children:
            craft = rows["campaign.run/emit.craft"]
            assert craft["self_seconds"] == pytest.approx(
                craft["total_seconds"] - answer["total_seconds"]
            )
            answer = {"total_seconds": 0.0}  # inside craft, not beside it
        assert run["self_seconds"] == pytest.approx(
            run["total_seconds"]
            - answer["total_seconds"]
            - sum(row["total_seconds"] for row in children)
        )

    def test_worker_pool_profile_reports_pickle_bytes_per_shard(self):
        spec = small_spec()
        prof = WallProfiler()
        merged = run_parallel(spec, shards=2, processes=2, profiler=prof)
        prof.validate()
        assert prof.coverage("parallel") >= 0.95
        profile = merged.wall_profile
        assert profile is not None
        shards = [worker["shard"] for worker in profile["workers"]]
        assert shards == [0, 1]
        assert all(
            worker["pickle_bytes"] > 0 for worker in profile["workers"]
        )
        assert profile["pickle_bytes_total"] == sum(
            worker["pickle_bytes"] for worker in profile["workers"]
        )
        rows = {row["path"]: row for row in profile["phases"]}
        assert {"parallel/pool.start", "parallel/shards", "parallel/shards/ipc.wait",
                "parallel/shards/pickle", "parallel/pool.stop", "parallel/merge"} <= set(rows)
        # The bytes counted are the bytes that crossed the pipes.
        assert rows["parallel/shards/pickle"]["bytes"] == profile["pickle_bytes_total"]
        worker_paths = {
            row["path"]
            for worker in profile["workers"]
            for row in worker["phases"]
        }
        assert "shard.run/campaign.run" in worker_paths

    def test_unprofiled_run_attaches_no_profile(self):
        spec = small_spec()
        merged = run_parallel(spec, shards=2, processes=1)
        assert merged.wall_profile is None

    def test_run_single_accepts_a_profiler(self):
        spec = small_spec()
        prof = WallProfiler()
        with prof.phase("probe"):
            result = run_single(spec, profiler=prof)
        prof.validate()
        assert result.wall_profile is None  # caller holds the profiler
        paths = {row["path"] for row in prof.phase_rows()}
        assert "probe/campaign.run" in paths
