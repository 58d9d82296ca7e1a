"""Tests for remote rate-limiter inference against ground truth."""

import pytest

from repro.analysis.limiter import LimiterProbeConfig, infer_limiter
from repro.netsim import Internet, InternetConfig, VantageConfig, build_internet


def world_with_premise(rate, burst):
    return build_internet(
        InternetConfig(
            n_edge=20,
            cpe_customers_per_isp=100,
            seed=33,
            response_loss=0.0,
            vantages=(
                VantageConfig(
                    "US-EDU-1", premise_hops=3, premise_limit=(rate, burst)
                ),
            ),
        )
    )


def any_target(built):
    for subnet in built.truth.subnets.values():
        return subnet.prefix.base | 0x1234
    raise AssertionError("no subnets")


class TestInference:
    @pytest.mark.parametrize("rate,burst", [(100.0, 40.0), (300.0, 120.0)])
    def test_recovers_truth_within_tolerance(self, rate, burst):
        built = world_with_premise(rate, burst)
        net = Internet(built)
        estimate = infer_limiter(net, "US-EDU-1", any_target(built), ttl=1)
        # Burst estimate within ~25% (the refill during the burst and
        # quantization blur it slightly).
        assert abs(estimate.burst - burst) <= max(8, burst * 0.25)
        # Rate estimate within ~30%.
        assert abs(estimate.rate - rate) <= rate * 0.3

    def test_overprovisioned_hop_reports_floor(self):
        built = world_with_premise(5000.0, 200.0)
        net = Internet(built)
        config = LimiterProbeConfig(scan_rates=(100.0, 200.0))
        estimate = infer_limiter(net, "US-EDU-1", any_target(built), 1, config)
        # Never overloaded: inference reports "at least the largest rate
        # scanned" rather than guessing.
        assert estimate.rate == 200.0
        assert all(fraction > 0.9 for _, fraction in estimate.scan)

    def test_scan_fractions_decrease_with_rate(self):
        built = world_with_premise(150.0, 50.0)
        net = Internet(built)
        estimate = infer_limiter(net, "US-EDU-1", any_target(built), 1)
        fractions = [fraction for _, fraction in estimate.scan]
        # Higher probe rates see lower response fractions.
        assert fractions[0] >= fractions[-1]

    def test_probe_accounting(self):
        built = world_with_premise(100.0, 30.0)
        net = Internet(built)
        estimate = infer_limiter(net, "US-EDU-1", any_target(built), 1)
        assert estimate.probes_used > 0


class TestConfig:
    @pytest.mark.parametrize("field", ["settle_seconds", "scan_seconds"])
    def test_a_negative_duration_is_refused_when_configured(self, field):
        with pytest.raises(ValueError, match="negative %s: -10" % field):
            LimiterProbeConfig(**{field: -10})
        assert getattr(LimiterProbeConfig(**{field: 0}), field) == 0
