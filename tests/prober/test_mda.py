"""Tests for MDA-style ECMP enumeration and the flow-id encoding."""

import heapq

import pytest

from repro.netsim import Internet, InternetConfig, build_internet
from repro.netsim.ecmp import flow_variant
from repro.packet import ipv6
from repro.packet.checksum import verify_transport_checksum
from repro.prober.encoding import encode_probe
from repro.prober.mda import MDAConfig, MDAResult, run_mda


@pytest.fixture(scope="module")
def built():
    return build_internet(InternetConfig(n_edge=40, cpe_customers_per_isp=200, seed=17))


class TestFlowIdEncoding:
    def test_flow_zero_is_default(self):
        assert encode_probe(1, 2, 3, 4) == encode_probe(1, 2, 3, 4, flow_id=0)

    def test_flows_change_checksum_only(self):
        base = encode_probe(1, 2, 3, 4, flow_id=0)
        other = encode_probe(1, 2, 3, 4, flow_id=5)
        # IPv6 header identical.
        assert base[:40] == other[:40]
        # ICMPv6 type/code/id/seq identical; checksum and fudge differ.
        assert base[40:42] == other[40:42]
        assert base[44:48] == other[44:48]
        assert base[42:44] != other[42:44]

    def test_every_flow_checksum_valid(self):
        for flow_id in range(0, 40, 7):
            packet = encode_probe(1, 2, 3, 4, flow_id=flow_id)
            header, payload = ipv6.split_packet(packet)
            assert verify_transport_checksum(1, 2, header.next_header, payload)

    def test_flow_constant_within_target(self):
        """For one (target, flow) the checksum stays constant across TTL
        and timestamp — each flow is itself Paris-stable."""
        a = encode_probe(1, 2, ttl=3, elapsed=100, flow_id=9)
        b = encode_probe(1, 2, ttl=14, elapsed=999_999, flow_id=9)
        assert a[42:44] == b[42:44]

    def test_flows_reach_different_variants(self, built):
        """Across a handful of flow ids, more than one ECMP variant is
        exercised for some destination."""
        net = Internet(built)
        dst = next(iter(built.truth.subnets.values())).prefix.base | 1
        variants = set()
        for flow_id in range(8):
            packet = encode_probe(net.vantage("US-EDU-1").address, dst, 5, 0, flow_id=flow_id * 7)
            header = ipv6.IPv6Header.unpack(packet)
            variants.add(flow_variant(header.src, dst, header.next_header, 0, packet))
        assert len(variants) > 1


class TestMDA:
    def test_requires_targets(self, built):
        net = Internet(built)
        with pytest.raises(ValueError):
            run_mda(net, "US-EDU-1", [])

    def test_enumerates_parallel_interfaces(self, built):
        """Somewhere along multi-homed paths, different flows expose
        different interfaces at the same hop."""
        net = Internet(built)
        targets = []
        for subnet in built.truth.subnets.values():
            targets.append(subnet.prefix.base | 0x1234)
            if len(targets) >= 40:
                break
        result = run_mda(net, "US-EDU-1", targets, MDAConfig(flows=6, max_ttl=12))
        divergent = result.divergent_hops()
        assert divergent, "no load-balanced hops enumerated"
        # Every divergent hop set is ground-truth plausible: all its
        # members are interfaces of routers on some variant's path.
        vantage = net.vantage("US-EDU-1")
        for (target, ttl), hops in divergent.items():
            allowed = set()
            for variant in range(4):
                path = net.path_for(vantage, target, variant)
                if ttl <= path.length:
                    allowed.add(path.hops[ttl - 1][1])
            assert hops <= allowed, (target, ttl)

    def test_single_flow_no_divergence(self, built):
        net = Internet(built)
        targets = [next(iter(built.truth.subnets.values())).prefix.base | 1]
        result = run_mda(net, "US-EDU-1", targets, MDAConfig(flows=1, max_ttl=10))
        assert not result.divergent_hops()

    def test_width(self, built):
        net = Internet(built)
        targets = [next(iter(built.truth.subnets.values())).prefix.base | 1]
        result = run_mda(net, "US-EDU-1", targets, MDAConfig(flows=6, max_ttl=12))
        assert result.width(targets[0]) >= 1
        assert result.width(0xDEAD) == 0

    def test_heap_holds_in_flight_responses_not_the_whole_sweep(self, built, monkeypatch):
        """The sweep holds a reply only while it is in flight, so its heap
        is bounded by round trip / probe interval — not by the 7 680
        probes of the sweep."""
        peak = [0]

        def watched(heap, item):
            heapq.heappush(heap, item)
            peak[0] = max(peak[0], len(heap))

        monkeypatch.setattr("repro.prober.mda.heappush", watched)
        targets = [
            subnet.prefix.base | 1
            for subnet in list(built.truth.subnets.values())[:60]
        ]
        result = run_mda(Internet(built), "US-EDU-1", targets)
        assert result.sent == 60 * 16 * 8
        # Round trips on this world stay under 70 ms (the peak reads 68
        # at 1000 pps); a quarter of a second of traffic is a loose roof.
        assert 0 < peak[0] <= 250
