"""Unit tests for address assignment, ECMP hashing, and router state."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import IIDClass, classify_iid
from repro.addrs.prefix import Prefix
from repro.netsim.addressing import (
    CPE_OUIS,
    host_iid,
    interface_address,
    interface_iid,
    pick_host_kind,
    random_mac,
)
from repro.netsim.ecmp import VARIANTS, flow_hash, flow_key, flow_variant
from repro.netsim.internet import RouterState
from repro.netsim.topology import AddressPlan, HostKind, Router, RouterRole
from repro.packet import icmpv6, ipv6, udp
from repro.packet.ipv6 import IPv6Header, PROTO_ICMPV6, PROTO_UDP


class TestInterfaceAddressing:
    def test_lowbyte_plan(self):
        rng = random.Random(1)
        assert interface_iid(AddressPlan.LOWBYTE, 0, rng) == 1
        assert interface_iid(AddressPlan.LOWBYTE, 1, rng) == 2

    def test_random_plan_nonzero(self):
        rng = random.Random(1)
        for _ in range(50):
            assert interface_iid(AddressPlan.RANDOM, 0, rng) != 0

    def test_eui64_plan_classifies(self):
        rng = random.Random(1)
        iid = interface_iid(AddressPlan.EUI64, 0, rng, oui=CPE_OUIS[0])
        assert classify_iid(iid) is IIDClass.EUI64

    def test_interface_address_inside_link(self):
        rng = random.Random(2)
        link = Prefix.parse("2001:db8:0:5::/64")
        addr = interface_address(link, AddressPlan.RANDOM, 0, rng)
        assert link.contains(addr)

    def test_random_mac_oui(self):
        mac = random_mac(random.Random(3), 0xAABBCC)
        assert mac[:3] == (0xAA, 0xBB, 0xCC)
        assert all(0 <= octet <= 255 for octet in mac)


class TestHostAddressing:
    def test_privacy_iid_never_eui64(self):
        rng = random.Random(4)
        for _ in range(300):
            iid = host_iid(HostKind.SLAAC_PRIVACY, rng)
            assert classify_iid(iid) is not IIDClass.EUI64
            assert iid != 0

    def test_eui64_host(self):
        iid = host_iid(HostKind.EUI64, random.Random(5))
        assert classify_iid(iid) is IIDClass.EUI64

    def test_lowbyte_server_small(self):
        for _ in range(50):
            iid = host_iid(HostKind.LOWBYTE_SERVER, random.Random(6))
            assert 1 <= iid <= 0x200

    def test_pick_host_kind_mix(self):
        rng = random.Random(7)
        kinds = [pick_host_kind(rng, 0.5, 0.3) for _ in range(2000)]
        privacy = kinds.count(HostKind.SLAAC_PRIVACY) / len(kinds)
        eui = kinds.count(HostKind.EUI64) / len(kinds)
        assert 0.45 < privacy < 0.55
        assert 0.25 < eui < 0.35


class TestFlowHashing:
    def _icmp_packet(self, src, dst, ident=1, seq=1, payload=b"x"):
        echo = icmpv6.echo_request(ident, seq, payload)
        segment = echo.pack(src, dst)
        header = IPv6Header(src, dst, len(segment), PROTO_ICMPV6)
        return header, segment

    def test_same_packet_same_variant(self):
        header, payload = self._icmp_packet(1, 2)
        assert flow_variant(header, payload) == flow_variant(header, payload)

    def test_variant_range(self):
        for dst in range(1, 50):
            header, payload = self._icmp_packet(1, dst)
            assert 0 <= flow_variant(header, payload) < VARIANTS

    def test_icmp_checksum_feeds_hash(self):
        """Two echo requests differing only in payload (hence checksum)
        hash differently — the phenomenon Yarrp6's fudge neutralizes."""
        header_a, payload_a = self._icmp_packet(1, 2, payload=b"aaaa")
        header_b, payload_b = self._icmp_packet(1, 2, payload=b"bbbb")
        assert flow_hash(header_a, payload_a) != flow_hash(header_b, payload_b)

    def test_udp_ports_feed_hash(self):
        src, dst = 1, 2
        seg_a = udp.build_datagram(src, dst, 1000, 80, b"x")
        seg_b = udp.build_datagram(src, dst, 1001, 80, b"x")
        header = IPv6Header(src, dst, len(seg_a), PROTO_UDP)
        assert flow_hash(header, seg_a) != flow_hash(header, seg_b)

    def test_destination_feeds_hash(self):
        header_a, payload_a = self._icmp_packet(1, 100)
        header_b, payload_b = self._icmp_packet(1, 200)
        assert flow_key(header_a, payload_a) != flow_key(header_b, payload_b)


    def test_key_bytes(self):
        """Source, destination, next header, 3-byte flow label, then the
        first four transport bytes for TCP/UDP/ICMPv6 only."""
        src, dst = (0x20010DB8 << 96) | 1, (1 << 128) - 1
        for proto, hashed in ((PROTO_UDP, True), (58, True), (6, True), (59, False)):
            for payload in (b"", b"abc", b"abcdefgh"):
                header = IPv6Header(src, dst, len(payload), proto, flow_label=0xABCDE)
                expected = (
                    src.to_bytes(16, "big")
                    + dst.to_bytes(16, "big")
                    + bytes([proto])
                    + b"\x0a\xbc\xde"
                )
                if hashed and len(payload) >= 4:
                    expected += payload[:4]
                assert flow_key(header, payload) == expected


class TestRouterState:
    """The per-run entry ``Internet`` keeps for a router it has probed."""

    def _router(self, router_id=7):
        return RouterState(Router(router_id, 64500, RouterRole.CORE, 100, 10))

    def test_frag_counter_monotone(self):
        router = self._router()
        values = [router.frag_identification(t * 1000) for t in range(100)]
        # Monotone modulo wraparound (fits easily here).
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_frag_counter_drifts_with_time(self):
        fast = self._router(router_id=3)  # drift derived from id
        baseline = fast.frag_identification(0)
        later = fast.frag_identification(10_000_000)  # 10s later
        expected_drift = fast.frag_drift * 10
        assert later - baseline >= 1  # at least the increment
        assert later - baseline <= expected_drift + 2

    def test_atomic_state_expires(self):
        router = self._router()
        router.note_packet_too_big(123, now=0, hold_us=1000)
        assert router.atomic_active(123, 500)
        assert not router.atomic_active(123, 1500)
        assert not router.atomic_active(456, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=50))
    def test_frag_ids_unique_any_schedule(self, times):
        router = self._router(router_id=11)
        values = [router.frag_identification(t) for t in sorted(times)]
        assert len(set(values)) == len(values)
