"""AllocSan — allocation accounting around hot profiler phases, budget
normalization, the benchmark-gate report shape, and a real campaign
under tracemalloc held to the budgets."""

import json
import tracemalloc

from repro.lint.allocsan import (
    DEFAULT_BATCH,
    DEFAULT_BUDGETS,
    AllocSanProfiler,
    build_report,
    check_budgets,
    write_report,
)


class FakeResult:
    def __init__(self, sent):
        self.sent = sent


class TestAccounting:
    def test_hot_phase_records_a_sample(self):
        with AllocSanProfiler() as prof:
            with prof.phase("campaign.run"):
                keep = [b"x" * 64 for _ in range(200)]
        assert len(keep) == 200
        (sample,) = prof.samples
        assert sample.phase == "campaign.run"
        assert sample.traced_bytes > 0
        assert sample.blocks > 0
        assert sample.peak_bytes >= sample.traced_bytes
        # Still a well-formed wall profile.
        prof.validate()
        assert prof.spans[0].name == "campaign.run"

    def test_non_hot_phases_are_not_sampled(self):
        with AllocSanProfiler() as prof:
            with prof.phase("campaign.setup"):
                keep = [b"x" * 64 for _ in range(200)]
        assert keep
        assert prof.samples == []

    def test_hot_phase_nested_under_outer_phase(self):
        with AllocSanProfiler() as prof:
            with prof.phase("probe"):
                with prof.phase("campaign.run"):
                    keep = list(range(500))
        assert keep
        (sample,) = prof.samples
        assert sample.phase == "campaign.run"

    def test_transient_churn_shows_in_peak_not_net(self):
        with AllocSanProfiler() as prof:
            with prof.phase("campaign.run"):
                temp = [bytes(1024) for _ in range(200)]
                del temp
        (sample,) = prof.samples
        assert sample.peak_bytes > 100_000
        assert sample.traced_bytes < 50_000

    def test_leaves_outer_tracemalloc_scope_alone(self):
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            with AllocSanProfiler() as prof:
                with prof.phase("campaign.run"):
                    pass
            # The profiler did not stop tracing it does not own.
            assert tracemalloc.is_tracing()
            assert len(prof.samples) == 1
        finally:
            tracemalloc.stop()

    def test_without_tracing_phases_still_work(self):
        prof = AllocSanProfiler()  # never entered: tracemalloc off
        with prof.phase("campaign.run"):
            pass
        assert prof.samples == []
        prof.validate()

    def test_agg_count_sums_across_parents(self):
        prof = AllocSanProfiler()
        with prof.phase("first"):
            craft = prof.agg("emit.craft")
            for _ in range(3):
                with craft:
                    pass
        with prof.phase("second"):
            craft = prof.agg("emit.craft")
            with craft:
                pass
            with prof.agg("recv.deliver"):
                pass
        assert prof.agg_count("emit.craft") == 4
        assert prof.agg_count("recv.deliver") == 1
        assert prof.agg_count("missing") == 0


class TestReport:
    def _profiler_with_samples(self, crafts=4):
        with AllocSanProfiler() as prof:
            with prof.phase("campaign.run"):
                craft = prof.agg("emit.craft")
                for _ in range(crafts):
                    with craft:
                        pass
                keep = [b"x" * 64 for _ in range(200)]
        assert keep
        return prof

    def test_report_normalizes_per_probe_and_per_batch(self):
        prof = self._profiler_with_samples(crafts=4)
        report = build_report(prof, FakeResult(sent=848))
        assert report["sanitizer"] == "allocsan"
        assert report["probes"] == 848
        assert report["batches"] == 4
        traced = sum(s.traced_bytes for s in prof.samples)
        blocks = sum(s.blocks for s in prof.samples)
        tracked = report["tracked"]
        assert tracked["allocsan.bytes_per_probe"]["value"] == traced / 848
        assert tracked["allocsan.blocks_per_batch"]["value"] == blocks / 4
        for entry in tracked.values():
            assert entry["direction"] == "lower"
            assert entry["threshold"] > 0
        assert report["budgets"] == DEFAULT_BUDGETS
        assert report["hot_phases"] == ["campaign.run"]

    def test_report_falls_back_to_default_batch_scale(self):
        # Per-event path: no emit.craft aggregate, so block counts
        # normalize against DEFAULT_BATCH-sized blocks.
        with AllocSanProfiler() as prof:
            with prof.phase("campaign.run"):
                pass
        report = build_report(prof, FakeResult(sent=600))
        assert report["batches"] == -(-600 // DEFAULT_BATCH) == 3

    def test_report_with_zero_probes_is_defined(self):
        with AllocSanProfiler() as prof:
            with prof.phase("campaign.run"):
                pass
        report = build_report(prof, FakeResult(sent=0))
        assert report["tracked"]["allocsan.bytes_per_probe"]["value"] == 0.0
        assert report["batches"] == 1

    def test_check_budgets_passes_and_fails(self):
        prof = self._profiler_with_samples()
        report = build_report(prof, FakeResult(sent=848))
        generous = {name: 10.0**9 for name in DEFAULT_BUDGETS}
        assert check_budgets(report, generous) == []
        tight = {"allocsan.bytes_per_probe": 0.0}
        (failure,) = check_budgets(report, tight)
        assert "allocsan.bytes_per_probe" in failure
        assert "exceeds budget" in failure

    def test_check_budgets_flags_missing_tracked_name(self):
        failures = check_budgets({"tracked": {}}, {"allocsan.bytes_per_probe": 1.0})
        assert failures == [
            "allocsan.bytes_per_probe: budgeted but missing from report"
        ]

    def test_report_feeds_the_benchmark_baseline_gate(self):
        from benchmarks.emit import compare_tracked

        prof = self._profiler_with_samples()
        baseline = build_report(prof, FakeResult(sent=848))
        assert compare_tracked(baseline, baseline) == []
        regressed = json.loads(json.dumps(baseline))
        entry = regressed["tracked"]["allocsan.bytes_per_probe"]
        entry["value"] = entry["value"] * 10 + 1
        (failure,) = compare_tracked(regressed, baseline)
        assert "allocsan.bytes_per_probe" in failure

    def test_write_report_is_canonical(self, tmp_path):
        prof = self._profiler_with_samples()
        report = build_report(prof, FakeResult(sent=848))
        path = str(tmp_path / "allocsan.json")
        write_report(path, report)
        text = open(path).read()
        assert text.endswith("\n")
        restored = json.loads(text)
        assert restored["probes"] == 848
        keys = list(restored)
        assert keys == sorted(keys)


class TestCampaignBudgets:
    def test_smoke_campaign_fits_the_budgets(self):
        from repro.netsim import Internet, InternetConfig, build_internet
        from repro.prober import run_yarrp6

        built = build_internet(
            InternetConfig(n_edge=30, cpe_customers_per_isp=150, seed=5)
        )
        internet = Internet(built)
        targets = []
        for subnet in built.truth.subnets.values():
            if subnet.host_iids:
                targets.append(subnet.host_addresses()[0])
            if len(targets) >= 60:
                break
        with AllocSanProfiler() as prof:
            result = run_yarrp6(
                internet, "US-EDU-1", targets, pps=1000, max_ttl=8,
                profiler=prof,
            )
        assert result.sent == len(targets) * 8
        report = build_report(prof, result)
        assert report["hot_phases"] == ["campaign.run"]
        assert report["batches"] == prof.agg_count("emit.craft") > 0
        assert check_budgets(report) == [], report["tracked"]
