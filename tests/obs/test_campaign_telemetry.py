"""Campaign-level telemetry: instrumentation changes nothing, dumps agree
with the result counters, and merged dumps are shard-count-invariant.

The load-bearing claims from docs/observability.md under test here:

* Running a campaign with a live registry and tracer produces the exact
  same records, interfaces, and duration as an uninstrumented run.
* The telemetry alone reconstructs the paper's curves: ``campaign.sent``
  and ``campaign.discovery`` give Figure 7's discovery-over-probes
  curve, ``ratelimit.denied`` gives Figure 5's loss.
* For decoupled worlds, ``run_parallel``'s merged dump is byte-identical
  for shards in {1, 2, 4} — the same contract the records obey.
"""

import ast
import hashlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    Internet,
    InternetConfig,
    build_internet,
    decoupled_dynamics,
)
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    dump_to_json,
    series_cumulative,
    series_points,
)
from repro.prober import campaign as campaign_module
from repro.prober import (
    CampaignSpec,
    run_parallel,
    run_sequential,
    run_single,
    run_yarrp6,
)

_WORLDS = {}


def small_world(seed, decoupled=True):
    """A tiny world plus its leaf-host targets, cached per (seed, mode)."""
    key = (seed, decoupled)
    if key not in _WORLDS:
        config = InternetConfig(
            seed=seed,
            n_edge=6,
            n_tier2=3,
            n_cpe_isps=1,
            cpe_customers_per_isp=12,
        )
        if decoupled:
            config = decoupled_dynamics(config)
        built = build_internet(config)
        targets = tuple(
            subnet.prefix.base | 1 for subnet in built.truth.subnets.values()
        )
        _WORLDS[key] = (config, targets)
    return _WORLDS[key]


def record_key(record):
    return (
        record.target,
        record.ttl,
        record.hop,
        record.rtt_us,
        record.received_at,
    )


def series_total(dump, name):
    return sum(value for _, value in series_points(dump, name))


class TestInstrumentationIsInert:
    """Telemetry observes the run; it must never steer it."""

    def test_results_identical_with_and_without_registry(self):
        config, targets = small_world(3)
        plain = run_yarrp6(Internet.from_config(config), "US-EDU-1", targets, pps=900.0)
        instrumented = run_yarrp6(
            Internet.from_config(config),
            "US-EDU-1",
            targets,
            pps=900.0,
            metrics=MetricsRegistry(),
            tracer=Tracer(),
        )
        assert plain.metrics is None
        assert instrumented.metrics is not None
        assert instrumented.sent == plain.sent
        assert [record_key(r) for r in instrumented.records] == [
            record_key(r) for r in plain.records
        ]
        assert instrumented.interfaces == plain.interfaces
        assert instrumented.curve == plain.curve
        assert instrumented.duration_us == plain.duration_us

    def test_internet_detached_after_campaign(self):
        config, targets = small_world(3)
        internet = Internet.from_config(config)
        run_yarrp6(internet, "US-EDU-1", targets, pps=900.0, metrics=MetricsRegistry())
        assert internet._limiter_observer is None


class TestDumpAgreesWithResult:
    def test_counters_match_headline_numbers(self):
        config, targets = small_world(3)
        result = run_yarrp6(
            Internet.from_config(config),
            "US-EDU-1",
            targets,
            pps=900.0,
            metrics=MetricsRegistry(),
        )
        dump = result.metrics
        assert dump["prober.sent"]["value"] == result.sent
        assert series_total(dump, "campaign.sent") == result.sent
        assert dump["prober.responses"]["value"] == len(result.records)
        # Engine diagnostics ride along in a single-process dump...
        assert dump["engine.events_fired"]["value"] > 0
        assert dump["engine.queue_depth"]["kind"] == "gauge"

    def test_fig7_discovery_curve_reconstructed_from_telemetry(self):
        config, targets = small_world(3)
        result = run_yarrp6(
            Internet.from_config(config),
            "US-EDU-1",
            targets,
            pps=900.0,
            metrics=MetricsRegistry(),
        )
        curve = series_cumulative(result.metrics, "campaign.discovery")
        assert curve, "discovery series recorded"
        counts = [count for _, count in curve]
        assert counts == sorted(counts)  # cumulative by construction
        assert counts[-1] == len(result.interfaces)
        # The per-TTL yield partition covers every time-exceeded record.
        ttl_yield = dict(
            (key, value)
            for key, value in result.metrics["prober.ttl_yield"]["values"]
        )
        assert sum(ttl_yield.values()) == sum(
            1 for record in result.records if record.is_time_exceeded
        )

    def test_fig5_loss_matches_ground_truth_rate_limiting(self):
        # A *coupled* world: the routers' ICMPv6 token buckets really
        # drain, and every denial the telemetry records must be one the
        # ground-truth internet counted.
        config, targets = small_world(11, decoupled=False)
        internet = Internet.from_config(config)
        result = run_sequential(
            internet, "US-EDU-1", targets, pps=2000.0, metrics=MetricsRegistry()
        )
        denied = series_total(result.metrics, "ratelimit.denied")
        assert denied == internet.stats.rate_limited
        assert denied > 0, "2 kpps sequential should trip the limiters"
        # Every time-exceeded record passed a limiter; echo replies from
        # end hosts never consult one, so allowed can be below len(records).
        allowed = series_total(result.metrics, "ratelimit.allowed")
        assert allowed >= sum(
            1 for record in result.records if record.is_time_exceeded
        )


class TestSpans:
    def test_trace_is_strictly_nested_and_named(self):
        config, targets = small_world(3)
        tracer = Tracer()
        run_yarrp6(
            Internet.from_config(config),
            "US-EDU-1",
            targets[:8],
            pps=900.0,
            tracer=tracer,
        )
        tracer.validate()
        names = {span.name for span in tracer.spans}
        assert {"campaign", "tick", "emit", "probe"} <= names
        roots = [span for span in tracer.spans if span.parent == -1]
        assert [span.name for span in roots] == ["campaign"]
        campaign = roots[0]
        assert campaign.end_us >= max(span.end_us for span in tracer.spans)

    def test_trace_dump_is_deterministic(self):
        config, targets = small_world(3)

        def trace_once():
            tracer = Tracer()
            run_yarrp6(
                Internet.from_config(config),
                "US-EDU-1",
                targets[:8],
                pps=900.0,
                tracer=tracer,
            )
            return tracer.dumps()

        assert trace_once() == trace_once()


#: The two campaigns every per-event contract below is checked on: a
#: fill campaign and a sequential one, on the coupled world so limiter
#: decisions are made (and traced).
PER_EVENT = {
    "fill": (run_yarrp6, {"pps": 2000.0, "max_ttl": 3, "fill": True}),
    "sequential": (run_sequential, {"pps": 2000.0}),
}

#: sha256 of ``Tracer.dumps()`` — read off the PR-21 tree, whose loop
#: opened every span with an inline ``with trace.span(...)``.
PINNED_TRACES = {
    "fill": "c144615919b7bcf710c6569bcad32432087aec3bfa88a1a7ba1315657c18cf91",
    "sequential": "a25ef4aa71bd8b5004219373afeab6a8b9a7308ff3ebeadd4fb535fc4b07737a",
}


def run_per_event(kind, tracer):
    config, targets = small_world(11, decoupled=False)
    run, options = PER_EVENT[kind]
    return run(Internet.from_config(config), "US-EDU-1", targets, tracer=tracer, **options)


class CountingNullTracer(NullTracer):
    """Disabled, but remembers every call a loop still makes on it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def span(self, name, **attrs):
        self.calls.append(name)
        return super().span(name, **attrs)

    def event(self, name, when=None, **attrs):
        self.calls.append(name)


@pytest.mark.parametrize("kind", list(PER_EVENT))
class TestPerEventLoop:
    def test_a_disabled_tracer_is_absent_from_the_loop(self, kind):
        """Nothing per tick, per probe or per response: the one call is
        the campaign-level span around the whole run."""
        tracer = CountingNullTracer()
        result = run_per_event(kind, tracer)
        assert result.sent > 1000 and len(result.records) > 1000
        assert tracer.calls == ["campaign"]

    def test_a_traced_campaign_dumps_the_parents_bytes(self, kind):
        """Names, order, parent indices, times, and the limiter
        decisions under ``probe``: the bound calls record what the
        inline ``with`` blocks did."""
        tracer = Tracer()
        run_per_event(kind, tracer)
        tracer.validate()
        by_parent = {
            (span.name, tracer.spans[span.parent].name)
            for span in tracer.spans
            if span.parent >= 0
        }
        assert by_parent == {
            ("tick", "campaign"),
            ("emit", "tick"),
            ("probe", "tick"),
            ("limiter.decision", "probe"),
            ("receive", "campaign"),
        }
        digest = hashlib.sha256(tracer.dumps().encode("utf-8")).hexdigest()
        assert digest == PINNED_TRACES[kind]


def test_run_campaign_binds_the_tracer_once_outside_every_loop():
    """The shape that keeps the null spans, and a traced twin of the
    loop, from quietly coming back (a contract no offline session could
    check as a CI grep)."""
    tree = ast.parse(inspect.getsource(campaign_module))
    (run,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "run_campaign"
    ]

    def attribute_uses(owner, attr):
        return [
            node
            for node in ast.walk(run)
            if isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == owner
        ]

    # The only span opened inline is the campaign-level one.
    spans = [
        node
        for node in ast.walk(run)
        if isinstance(node, ast.Call) and node.func in attribute_uses("trace", "span")
    ]
    assert [call.args[0].value for call in spans] == ["campaign"]
    # One emission site and one reception site: no second per-event loop.
    assert len(attribute_uses("machine", "next_probe")) == 1
    assert len(attribute_uses("machine", "receive")) == 1
    # No loop, loop body or delivery callback names the tracer at all —
    # neither to open a span nor to test ``trace.enabled``.
    nested = [
        node for node in ast.walk(run) if isinstance(node, ast.FunctionDef) and node is not run
    ]
    assert {"tick", "deliver"} <= {function.name for function in nested}
    for function in nested:
        names = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        assert not {"trace", "tracer"} & names, function.name
    generators = [
        function.name
        for function in nested
        if any(isinstance(node, ast.Yield) for node in ast.walk(function))
    ]
    assert sorted(generators) == ["block_tick", "tick"]


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merged_dump_matches_single_shard(self, shards):
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:30],
            pps=900.0,
            metrics=True,
        )
        reference = run_parallel(spec, shards=1)
        merged = run_parallel(spec, shards=shards)
        assert merged.metrics is not None
        assert dump_to_json(merged.metrics) == dump_to_json(reference.metrics)
        # Run-scoped diagnostics never leak into the merged dump.
        assert not any(name.startswith("engine.") for name in merged.metrics)

    def test_merged_discovery_matches_single_process_curve(self):
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:30],
            pps=900.0,
            metrics=True,
        )
        single = run_single(spec)
        merged = run_parallel(spec, shards=4)
        assert series_cumulative(
            merged.metrics, "campaign.discovery"
        ) == series_cumulative(single.metrics, "campaign.discovery")
        final = series_cumulative(merged.metrics, "campaign.discovery")[-1][1]
        assert final == len(merged.interfaces)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=30))
    def test_property_dump_bytes_invariant_across_shards(self, seed):
        config, targets = small_world(seed)
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:20],
            pps=1100.0,
            metrics=True,
        )
        dumps = {
            shards: dump_to_json(run_parallel(spec, shards=shards).metrics)
            for shards in (1, 2, 4)
        }
        assert dumps[1] == dumps[2] == dumps[4]

    def test_metrics_off_by_default(self):
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config, vantage="US-EDU-1", targets=targets[:10], pps=900.0
        )
        assert run_parallel(spec, shards=2).metrics is None
        assert run_single(spec).metrics is None
