"""Tests for discovery metrics, response mixes, and reporting, driven by
real (small) campaigns against the simulated internet."""

import pytest

from repro.addrs import parse
from repro.analysis.discovery import (
    discovery_curve,
    eui64_path_offsets,
    eui64_share,
    exclusive_interfaces,
    offset_summary,
    oui_concentration,
    percentile,
)
from repro.analysis.report import (
    format_count,
    render_cdf,
    render_series,
    render_table,
)
from repro.analysis.responses import (
    other_icmp_count,
    other_icmp_rate,
    per_hop_responsiveness,
    protocol_comparison,
    response_mix,
    transformation_table,
)
from repro.analysis.targetsets import characterize_results
from repro.netsim import Internet, InternetConfig, build_internet
from repro.prober import run_yarrp6


@pytest.fixture(scope="module")
def built():
    return build_internet(InternetConfig(n_edge=40, cpe_customers_per_isp=300, seed=31))


@pytest.fixture(scope="module")
def cpe_campaign(built):
    net = Internet(built)
    targets = []
    for asn in built.cpe_asns:
        for subnet in built.truth.ases[asn].plan.leaves[:120]:
            targets.append(subnet.prefix.base | 0x1234_5678_1234_5678)
    return run_yarrp6(net, "US-EDU-1", targets, pps=800, max_ttl=16)


@pytest.fixture(scope="module")
def edge_campaign(built):
    net = Internet(built)
    targets = []
    for asn in built.edge_asns:
        for subnet in built.truth.ases[asn].plan.leaves[:3]:
            targets.append(subnet.prefix.base | 0x1234_5678_1234_5678)
    return run_yarrp6(net, "US-EDU-1", targets, pps=800, max_ttl=16)


class TestDiscoveryCurve:
    def test_downsample_preserves_endpoints(self, cpe_campaign):
        curve = discovery_curve(cpe_campaign, points=10)
        assert curve[0] == cpe_campaign.curve[0]
        assert curve[-1] == cpe_campaign.curve[-1]
        assert len(curve) <= 12

    def test_monotone(self, cpe_campaign):
        curve = discovery_curve(cpe_campaign, points=20)
        xs = [x for x, _ in curve]
        ys = [y for _, y in curve]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_empty_curve(self, built):
        from repro.prober.campaign import CampaignResult

        empty = CampaignResult(
            name="x", vantage="v", prober="yarrp6", pps=1, targets=0, sent=0,
            records=[], interfaces=set(), curve=[], response_labels={},
            summary={}, duration_us=0,
        )
        assert discovery_curve(empty) == []

    def test_a_short_curve_is_kept_whole(self):
        from repro.prober.campaign import CampaignResult

        curve = [(1, 1), (10, 4), (100, 9)]
        short = CampaignResult(
            name="x", vantage="v", prober="yarrp6", pps=1, targets=1, sent=100,
            records=[], interfaces=set(), curve=curve, response_labels={},
            summary={}, duration_us=0,
        )
        assert discovery_curve(short, points=3) == curve
        assert discovery_curve(short, points=3) is not curve


class TestEui64Analysis:
    def test_cpe_campaign_eui64_heavy(self, cpe_campaign, edge_campaign):
        """Targets in CPE ISP space surface EUI-64 routers; edge targets
        mostly don't (the Table 7 contrast)."""
        assert eui64_share(cpe_campaign.interfaces) > eui64_share(
            edge_campaign.interfaces
        )

    def test_offsets_mostly_last_hop(self, cpe_campaign):
        """CPE EUI-64 interfaces sit at the end of their paths."""
        offsets = eui64_path_offsets(cpe_campaign)
        assert offsets
        p5, median = offset_summary(offsets)
        assert median == 0
        assert p5 <= 0

    def test_oui_concentration(self, cpe_campaign):
        """Each CPE ISP fields a single vendor: the top-2 OUI share of
        EUI-64 interfaces is overwhelming."""
        assert oui_concentration(cpe_campaign.interfaces, top=2) > 0.9

    def test_no_interfaces_no_share(self):
        assert eui64_share([]) == 0.0
        assert oui_concentration([]) == 0.0

    def test_no_eui64_interfaces_no_concentration(self):
        lowbyte = [parse("2001:db8::1"), parse("2001:db8::2")]
        assert eui64_share(lowbyte) == 0.0
        assert oui_concentration(lowbyte) == 0.0

    def test_percentile(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2
        assert percentile([], 0.5) == 0.0
        assert percentile([5], 0.05) == 5


class TestExclusivity:
    def test_exclusive_interfaces(self, cpe_campaign, edge_campaign):
        exclusives = exclusive_interfaces(
            {"cpe": cpe_campaign, "edge": edge_campaign}
        )
        shared = cpe_campaign.interfaces & edge_campaign.interfaces
        assert exclusives["cpe"] == cpe_campaign.interfaces - shared
        assert exclusives["edge"] == edge_campaign.interfaces - shared

    def test_characterize_results(self, built, cpe_campaign, edge_campaign):
        features = characterize_results(
            {"cpe": cpe_campaign, "edge": edge_campaign}, built.truth.registry
        )
        assert features["cpe"].asns
        assert features["cpe"].exclusive_asns <= features["cpe"].asns
        for prefix in features["edge"].exclusive_prefixes:
            assert prefix not in features["cpe"].bgp_prefixes


class TestResponses:
    def test_mix_sums_to_one(self, cpe_campaign):
        mix = response_mix(cpe_campaign)
        assert abs(sum(mix.values()) - 1.0) < 1e-9
        assert mix.get("time exceeded", 0) > 0.5

    def test_other_icmp(self, edge_campaign):
        count = other_icmp_count(edge_campaign)
        rate = other_icmp_rate(edge_campaign)
        assert count >= 0
        assert 0 <= rate <= 1

    def test_transformation_table_rows(self, cpe_campaign, edge_campaign):
        rows = transformation_table({48: edge_campaign, 64: cpe_campaign})
        assert [row["zn"] for row in rows] == [48, 64]
        for row in rows:
            assert row["excl_addrs"] <= row["addrs"]

    def test_protocol_comparison_keys(self, cpe_campaign):
        comparison = protocol_comparison({"icmp6": cpe_campaign})
        assert comparison["icmp6"]["interfaces"] == len(cpe_campaign.interfaces)

    def test_per_hop_responsiveness(self, cpe_campaign):
        series = per_hop_responsiveness(cpe_campaign, 16)
        assert len(series) == 16
        assert all(0.0 <= fraction <= 1.0 for _, fraction in series)
        # Near hops respond for almost all traces at this gentle rate.
        assert series[0][1] > 0.9


class TestReport:
    def test_format_count(self):
        assert format_count(1_340_000) == "1.3M"
        assert format_count(45_500) == "45.5k"
        assert format_count(12) == "12"
        assert format_count(3.25) == "3.25"

    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        text = render_series("s", [(1, 2.0)], "x", "y")
        assert "s" in text and "1" in text

    def test_render_cdf(self):
        text = render_cdf({"a": [(24, 0.0), (64, 1.0)]}, "dpl")
        assert "0.000" in text and "1.000" in text
