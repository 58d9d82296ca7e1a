"""Tests for the AIMD adaptive-rate prober."""

import pytest

from repro.netsim import Internet, InternetConfig, build_internet
from repro.prober.adaptive import AdaptiveConfig, RateController, run_adaptive_yarrp6
from repro.prober import run_yarrp6
from repro.prober.yarrp6 import Yarrp6Config


@pytest.fixture(scope="module")
def built():
    return build_internet(InternetConfig(n_edge=40, cpe_customers_per_isp=200, seed=23))


@pytest.fixture(scope="module")
def targets(built):
    out = []
    for subnet in built.truth.subnets.values():
        out.append(subnet.prefix.base | 0x1234)
        if len(out) >= 400:
            break
    return out


class TestRateController:
    def test_halves_on_low_water(self):
        controller = RateController(AdaptiveConfig(initial_pps=1000))
        for _ in range(10):
            controller.on_probe(1)
        for _ in range(3):
            controller.on_response(1)
        assert controller.evaluate(0) == 500

    def test_increases_on_high_water(self):
        controller = RateController(AdaptiveConfig(initial_pps=1000, increase=100))
        for _ in range(10):
            controller.on_probe(2)
            controller.on_response(2)
        assert controller.evaluate(0) == 1100

    def test_holds_between_watermarks(self):
        controller = RateController(
            AdaptiveConfig(initial_pps=1000, low_water=0.5, high_water=0.95)
        )
        for _ in range(10):
            controller.on_probe(1)
        for _ in range(8):
            controller.on_response(1)
        assert controller.evaluate(0) == 1000

    def test_needs_enough_signal(self):
        controller = RateController(AdaptiveConfig(initial_pps=1000))
        controller.on_probe(1)  # one probe: not enough evidence
        assert controller.evaluate(0) == 1000
        assert not controller.history

    def test_a_thin_window_carries_its_counts_into_the_next(self):
        controller = RateController(AdaptiveConfig(initial_pps=1000))
        for _ in range(3):
            controller.on_probe(1)
        assert controller.evaluate(0) == 1000  # three probes: not yet
        assert not controller.history
        for _ in range(2):
            controller.on_probe(1)
        # Five probes over two windows, none answered: the second acts.
        assert controller.evaluate(1) == 500
        assert controller.history == [(1, 500, 0.0)]
        assert (controller.near_sent, controller.near_answered) == (0, 0)

    def test_floor_and_ceiling(self):
        config = AdaptiveConfig(initial_pps=100, min_pps=80, max_pps=150, increase=100)
        controller = RateController(config)
        for _ in range(10):
            controller.on_probe(1)
        assert controller.evaluate(0) == 80  # floored
        for _ in range(10):
            controller.on_probe(1)
            controller.on_response(1)
        assert controller.evaluate(1) == 150  # capped

    def test_deep_ttls_ignored(self):
        controller = RateController(AdaptiveConfig(near_ttl=3))
        for _ in range(10):
            controller.on_probe(9)
        assert controller.evaluate(0) == controller.config.initial_pps


class TestConfigRefusals:
    """A value the controller would misuse fails when the config is
    built, naming its field — not after the first probe, and not as a
    run whose controller silently never acts."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"initial_pps": 0}, "initial_pps must be positive and finite: 0"),
            ({"initial_pps": float("nan")}, "initial_pps must be positive and finite: nan"),
            ({"initial_pps": float("inf")}, "initial_pps must be positive and finite: inf"),
            (
                {"initial_pps": 100, "max_pps": 50, "min_pps": -5},
                "min_pps must be positive and finite: -5",
            ),
            ({"max_pps": 0.0}, "max_pps must be positive and finite: 0.0"),
            ({"min_pps": 80, "max_pps": 50}, "min_pps 80 is above max_pps 50"),
            ({"window_us": -1}, "window_us must be at least 1: -1"),
            ({"window_us": 0}, "window_us must be at least 1: 0"),
        ],
        ids=[
            "initial-zero", "initial-nan", "initial-inf", "min-negative",
            "max-zero", "floor-above-ceiling", "window-negative", "window-zero",
        ],
    )
    def test_refused_when_built(self, fields, message):
        with pytest.raises(ValueError) as refused:
            AdaptiveConfig(**fields)
        assert str(refused.value) == message

    def test_a_start_above_the_ceiling_is_kept(self):
        """The overloaded start the adaptive bench runs (20 kpps against
        the default 10 kpps ceiling) is a config, not a mistake."""
        config = AdaptiveConfig(initial_pps=20_000)
        assert config.initial_pps > config.max_pps


class TestAdaptiveCampaign:
    def test_backs_off_under_limiting(self, built, targets):
        """Starting far above the premise buckets' rate, the controller
        converges downward and ends below its initial rate."""
        net = Internet(built)
        result, controller = run_adaptive_yarrp6(
            net,
            "US-EDU-1",
            targets,
            AdaptiveConfig(initial_pps=20_000, window_us=100_000),
        )
        assert controller.history, "controller never evaluated"
        final_rate = controller.history[-1][1]
        assert final_rate < 20_000
        assert result.sent == len(targets) * 16

    def test_beats_fixed_overload_rate(self, built, targets):
        """At an overloaded fixed rate, near-hop records are lost; the
        adaptive run recovers most of them."""
        net = Internet(built)
        fixed = run_yarrp6(net, "US-EDU-1", targets, pps=20_000, max_ttl=16)
        net.reset_dynamics()
        adaptive, _ = run_adaptive_yarrp6(
            net,
            "US-EDU-1",
            targets,
            AdaptiveConfig(initial_pps=20_000, window_us=100_000),
        )

        def near_records(result):
            return sum(1 for record in result.records if record.ttl <= 3)

        assert near_records(adaptive) > near_records(fixed) * 1.3
        # The price is wall-clock (virtual) duration.
        assert adaptive.duration_us > fixed.duration_us

    def test_stays_up_when_unconstrained(self, built, targets):
        """With buckets comfortably provisioned, the controller keeps the
        rate at or above its starting point."""
        net = Internet(built)
        result, controller = run_adaptive_yarrp6(
            net,
            "US-EDU-1",
            targets,
            AdaptiveConfig(initial_pps=500, window_us=100_000),
        )
        if controller.history:
            assert controller.history[-1][1] >= 500

    def test_a_one_microsecond_window_still_acts(self, built, targets):
        """Every window closes after at most one probe, under the
        five-probe floor; the counts gather across windows, so the
        controller still acts and pulls the overloaded start down."""
        _, controller = run_adaptive_yarrp6(
            Internet(built),
            "US-EDU-1",
            targets,
            AdaptiveConfig(initial_pps=20_000, window_us=1),
        )
        assert controller.history
        assert controller.pps != 20_000

    def test_pinned_rate_ends_where_the_fixed_rate_campaign_does(self, built, targets):
        """With the controller pinned, the adaptive loop is run_yarrp6's
        loop, so the campaign ends on its last emission or response —
        not on an empty tick one 20 ms pacing interval after the walk ran
        out, which is longer than the last round trip here."""
        pinned = AdaptiveConfig(initial_pps=50, min_pps=50, max_pps=50)
        walk = Yarrp6Config(max_ttl=4)
        adaptive, _ = run_adaptive_yarrp6(
            Internet(built), "US-EDU-1", targets[:5], pinned, walk
        )
        fixed = run_yarrp6(Internet(built), "US-EDU-1", targets[:5], pps=50, config=walk)
        assert adaptive.sent == fixed.sent == 20
        assert [record.received_at for record in adaptive.records] == [
            record.received_at for record in fixed.records
        ]
        assert adaptive.duration_us == fixed.duration_us
        assert adaptive.duration_us == max(
            19 * 20_000, max(record.received_at for record in adaptive.records)
        )
