"""Tests for aliased-prefix detection and hitlist filtering."""

import pytest

from repro.addrs import parse
from repro.addrs.prefix import Prefix
from repro.hitlist.dealias import (
    DealiasConfig,
    candidate_prefixes,
    detect_aliased,
    filter_hitlist,
)
from repro.netsim import Internet, InternetConfig, build_internet


@pytest.fixture(scope="module")
def built():
    # A healthy share of aliased subnets so detection has work to do.
    return build_internet(
        InternetConfig(
            n_edge=40,
            cpe_customers_per_isp=100,
            seed=41,
            aliased_subnet_fraction=0.1,
            response_loss=0.0,
        )
    )


def leaf_split(built):
    """Aliased/normal leaves, excluding ASes whose borders filter ICMPv6
    (an aliased prefix behind an admin firewall is unreachable — and
    correctly undetectable)."""
    from repro.packet.ipv6 import PROTO_ICMPV6

    aliased = []
    normal = []
    for subnet in built.truth.subnets.values():
        asys = built.truth.ases[subnet.gateway.asn]
        if PROTO_ICMPV6 in asys.policy.blocked_protocols:
            continue
        (aliased if subnet.aliased else normal).append(subnet.prefix)
    return aliased, normal


class TestGroundTruthPlanting:
    def test_some_subnets_aliased(self, built):
        aliased, normal = leaf_split(built)
        assert aliased
        assert normal

    def test_aliased_answers_random_iid(self, built):
        from repro.packet import icmpv6, ipv6
        from repro.packet.ipv6 import IPv6Header, PROTO_ICMPV6

        net = Internet(built)
        aliased, _ = leaf_split(built)
        vantage = net.vantage("US-EDU-1")
        target = aliased[0].base | 0xDEAD_BEEF_CAFE_F00D
        packet = ipv6.build_packet(
            IPv6Header(vantage.address, target, 0, PROTO_ICMPV6, hop_limit=64),
            icmpv6.echo_request(1, 1).pack(vantage.address, target),
        )
        response = net.probe(packet, 0)
        assert response is not None
        _, payload = ipv6.split_packet(response.data)
        assert icmpv6.ICMPv6Message.unpack(payload).is_echo_reply


class TestDetection:
    def test_finds_planted_aliased_prefixes(self, built):
        net = Internet(built)
        aliased, normal = leaf_split(built)
        candidates = aliased[:12] + normal[:30]
        found = detect_aliased(net, "US-EDU-1", candidates)
        assert found == set(aliased[:12])

    def test_normal_lans_not_flagged(self, built):
        net = Internet(built)
        _, normal = leaf_split(built)
        found = detect_aliased(net, "US-EDU-1", normal[:40])
        assert not found

    def test_requires_slash64(self, built):
        """Every prefix is checked ahead of the first probe: a bad one
        late in the list must not leave half a sweep on the wire."""
        net = Internet(built)
        _, normal = leaf_split(built)
        with pytest.raises(ValueError):
            detect_aliased(
                net, "US-EDU-1", normal[:3] + [Prefix.parse("2001:db8::/48")]
            )
        assert net.stats.probes == 0

    def test_threshold(self, built):
        """A lossy-but-real LAN with a lenient threshold is still safe:
        random IIDs in normal LANs answer ~never, far under threshold."""
        net = Internet(built)
        _, normal = leaf_split(built)
        found = detect_aliased(
            net, "US-EDU-1", normal[:20], DealiasConfig(threshold=0.5)
        )
        assert not found


class TestFiltering:
    def test_filter_hitlist(self):
        aliased = [Prefix.parse("2001:db8:bad::/64")]
        items = [
            parse("2001:db8:bad::1"),
            parse("2001:db8:bad::dead"),
            parse("2001:db8:900d::1"),
        ]
        kept, removed = filter_hitlist(items, aliased)
        assert removed == 2
        assert kept == [parse("2001:db8:900d::1")]

    def test_filter_prefix_items(self):
        aliased = [Prefix.parse("2001:db8:bad::/64")]
        items = [Prefix.parse("2001:db8:bad::/64"), Prefix.parse("2001:db8:900d::/64")]
        kept, removed = filter_hitlist(items, aliased)
        assert removed == 1
        assert kept == [Prefix.parse("2001:db8:900d::/64")]

    def test_candidate_prefixes(self):
        items = [
            parse("2001:db8::1"),
            parse("2001:db8::2"),
            parse("2001:db8:1::1"),
            Prefix.parse("2001:db8:2::/48"),  # shorter than /64: skipped
        ]
        candidates = candidate_prefixes(items)
        assert candidates == [
            Prefix.parse("2001:db8::/64"),
            Prefix.parse("2001:db8:1::/64"),
        ]
