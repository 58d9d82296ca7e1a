"""Campaign-level telemetry: instrumentation changes nothing and dumps
agree with the result counters.

The load-bearing claims from docs/observability.md under test here:

* Running a campaign with a live registry produces the exact
  same records, interfaces, and duration as an uninstrumented run.
* The telemetry alone reconstructs the paper's curves: ``campaign.sent``
  and ``campaign.discovery`` give Figure 7's discovery-over-probes
  curve, ``ratelimit.denied`` gives Figure 5's loss.
"""

import ast
import hashlib
import inspect

import pytest

from repro.netsim import (
    Internet,
    InternetConfig,
    build_internet,
    decoupled_dynamics,
)
from repro.obs import (
    MetricsRegistry,
    series_cumulative,
    series_points,
)
from repro.prober import campaign as campaign_module
from repro.prober import (
    CampaignSpec,
    Yarrp6Config,
    dumps,
    run_campaign,
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


#: Every loop a campaign can run on, on the coupled world at 20 kpps so
#: every one of them trips the limiters: yarrp6 on the block loop and
#: forced off it (``batch=0``), walking and filling, and the two baselines.
LOOPS = {
    "walk-blocks": ("yarrp6", Yarrp6Config(max_ttl=8), None),
    "walk-per-event": ("yarrp6", Yarrp6Config(max_ttl=8), 0),
    "fill-blocks": ("yarrp6", Yarrp6Config(max_ttl=3, fill=True), None),
    "fill-per-event": ("yarrp6", Yarrp6Config(max_ttl=3, fill=True), 0),
    "sequential": ("sequential", None, None),
    "doubletree": ("doubletree", None, None),
}


def run_loop(loop, metrics=None):
    config, targets = small_world(11, decoupled=False)
    internet = Internet.from_config(config)
    prober, prober_config, batch = LOOPS[loop]
    result = run_campaign(
        internet, "US-EDU-1", targets, prober, 20000.0, prober_config,
        metrics=metrics, batch=batch,
    )
    return internet, result


@pytest.mark.parametrize("loop", list(LOOPS))
class TestEveryLoopIsObserved:
    """The registry is the one observer left on the campaign loops: on
    each of them it must record what happened and change none of it."""

    def test_a_registry_changes_no_byte_of_the_output(self, loop):
        plain_internet, plain = run_loop(loop)
        internet, observed = run_loop(loop, MetricsRegistry())
        assert plain.metrics is None and observed.metrics is not None
        assert dumps(observed) == dumps(plain)
        assert observed.duration_us == plain.duration_us
        assert stats_of(internet) == stats_of(plain_internet)
        assert internet._limiter_observer is None

    def test_the_limiter_series_agree_with_the_ground_truth(self, loop):
        internet, result = run_loop(loop, MetricsRegistry())
        stats = internet.stats
        denied = series_total(result.metrics, "ratelimit.denied")
        assert denied == stats.rate_limited > 0
        # Every Time Exceeded passed a limiter; a passed decision ends as
        # an error sent or as a loss (losses at end hosts count there too).
        allowed = series_total(result.metrics, "ratelimit.allowed")
        assert stats.time_exceeded <= allowed
        assert allowed <= (
            stats.time_exceeded + stats.unreachables + stats.packet_too_big + stats.lost
        )


def stats_of(internet):
    return {name: getattr(internet.stats, name) for name in type(internet.stats).__slots__}


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


#: The campaigns the per-event loop is pinned on, on the coupled world
#: so limiter decisions are made: yarrp6 forced off the block loop
#: (``batch=0``) as a walk, with fill, and with fill plus neighbourhood
#: skipping, and the two baselines, which have no block loop.
PER_EVENT = {
    "fill": ("yarrp6", Yarrp6Config(max_ttl=3, fill=True), 0),
    "sequential": ("sequential", None, None),
    "walk": ("yarrp6", Yarrp6Config(max_ttl=8), 0),
    "fill-neighbourhood": (
        "yarrp6",
        Yarrp6Config(max_ttl=4, fill=True, neighborhood_ttl=2),
        0,
    ),
    "doubletree": ("doubletree", None, None),
}

#: sha256 of ``dumps(result)`` and ``result.duration_us`` — read off the
#: tree whose per-event loop still bound its calls through a virtual-time
#: span tracer.
PINNED_RUNS = {
    "fill": ("319708f976be3f39cf50c8f17422c751fc497d98336c8581ee29833cef7da7a9", 973316),
    "sequential": (
        "7a3d3faaa3c7e208feccce2cc3e6a079a5f7a65b9c260005b82575ad197a1630",
        1249326,
    ),
    "walk": ("ad7540af90abe79484da7c2b0b243a00028f9c80b013cbaff141fac3294f7d78", 829584),
    "fill-neighbourhood": (
        "1072ac645c34bdd4f86e2c833def592a0e63fd08eebef5b9ff3f1909dd44b877",
        979378,
    ),
    "doubletree": (
        "1535727945a139220334e47272df2074b00348f19e34745718aba2e4714e2c08",
        593578,
    ),
}


@pytest.mark.parametrize("kind", list(PER_EVENT))
def test_the_per_event_loop_reproduces_its_pinned_output(kind):
    config, targets = small_world(11, decoupled=False)
    prober, prober_config, batch = PER_EVENT[kind]
    result = run_campaign(
        Internet.from_config(config), "US-EDU-1", targets, prober, 2000.0,
        prober_config, batch=batch,
    )
    assert result.sent > 1000 and len(result.records) > 1000
    digest = hashlib.sha256(dumps(result).encode("utf-8")).hexdigest()
    assert (digest, result.duration_us) == PINNED_RUNS[kind]


def test_run_campaign_has_one_per_event_loop_and_one_block_loop():
    """The shape that keeps a second per-event loop from quietly coming
    back: one emission site, one reception site, two generators."""
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

    # One emission site and one reception site: no second per-event loop.
    assert len(attribute_uses("machine", "next_probe")) == 1
    assert len(attribute_uses("machine", "receive")) == 1
    nested = [
        node for node in ast.walk(run) if isinstance(node, ast.FunctionDef) and node is not run
    ]
    assert {"tick", "deliver"} <= {function.name for function in nested}
    generators = [
        function.name
        for function in nested
        if any(isinstance(node, ast.Yield) for node in ast.walk(function))
    ]
    assert sorted(generators) == ["block_tick", "tick"]


def test_metrics_off_by_default():
    config, targets = small_world(7)
    spec = CampaignSpec(
        internet=config, vantage="US-EDU-1", targets=targets[:10], pps=900.0
    )
    assert run_parallel(spec, shards=2).metrics is None
    assert run_single(spec).metrics is None
