"""Integration tests for the packet-level internet simulator."""

import random

import pytest

from repro.addrs import format_address, parse
from repro.analysis.limiter import LimiterProbeConfig, infer_limiter
from repro.netsim import (
    CompiledPath,
    Internet,
    InternetConfig,
    TerminalKind,
    build_internet,
    decoupled_dynamics,
)
from repro.netsim.ecmp import flow_variant
from repro.netsim.internet import check_vantage
from repro.netsim.topology import AddressPlan, Router, RouterRole
from repro.obs import MetricsRegistry
from repro.packet import fragment, icmpv6, ipv6, tcp, udp
from repro.packet.icmpv6 import UnreachableCode
from repro.packet.ipv6 import IPv6Header, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP
from repro.prober import run_yarrp6
from repro.prober.adaptive import run_adaptive_yarrp6
from repro.prober.campaign import PROBERS, run_campaign
from repro.prober.encoding import PROTOCOLS, encode_probe
from repro.prober.speedtrap import run_speedtrap
from repro.prober.yarrp6 import Yarrp6Config
from tests.prober.test_world_lifetime import leaf_targets, router_aliases


def icmp_probe(src, dst, ttl, ident=7, seq=1, payload=b"probe"):
    echo = icmpv6.echo_request(ident, seq, payload)
    return ipv6.build_packet(
        IPv6Header(src, dst, 0, PROTO_ICMPV6, hop_limit=ttl),
        echo.pack(src, dst),
    )


def udp_probe(src, dst, ttl, sport=4660, dport=33434, payload=b"probe"):
    return ipv6.build_packet(
        IPv6Header(src, dst, 0, PROTO_UDP, hop_limit=ttl),
        udp.build_datagram(src, dst, sport, dport, payload),
    )


def parse_icmp(response):
    header, payload = ipv6.split_packet(response.data)
    return header, icmpv6.ICMPv6Message.unpack(payload)


def first_host(net):
    for subnet in net.truth.subnets.values():
        if subnet.host_iids:
            return subnet.host_addresses()[0]
    raise AssertionError("no hosts built")


class TestPathCompilation:
    def test_path_terminates_in_lan_for_host(self, net):
        vantage = net.vantage("US-EDU-1")
        path = net.path_for(vantage, first_host(net))
        assert path.terminal is TerminalKind.LAN
        assert path.length >= 6

    def test_path_cached(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        assert net.path_for(vantage, dst, 1) is net.path_for(vantage, dst, 1)

    def test_same_slash64_same_path(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        sibling = (dst & ~0xFFFF) | 0xABCD
        assert net.path_for(vantage, dst, 0) is net.path_for(vantage, sibling, 0)

    def test_first_hops_are_premise_chain(self, net):
        vantage = net.vantage("US-EDU-2")
        path = net.path_for(vantage, first_host(net))
        premise = [iface for _, iface in vantage.premise_chain]
        assert [iface for _, iface, _ in path.hops[: len(premise)]] == premise

    def test_unrouted_destination_no_route(self, net):
        vantage = net.vantage("US-EDU-1")
        path = net.path_for(vantage, parse("3fff:ffff::1"))
        assert path.terminal is TerminalKind.ERROR
        assert path.error_code is UnreachableCode.NO_ROUTE

    def test_routed_but_unallocated_is_error(self, net):
        """An address inside an advertised prefix but outside any active
        distribution/allocation draws an error, not a LAN delivery."""
        vantage = net.vantage("US-EDU-1")
        for asn in net.built.edge_asns:
            asys = net.truth.ases[asn]
            if not asys.prefixes or not net.built.dist_index[asn]:
                continue
            prefix = asys.prefixes[0]
            dists = net.built.dist_index[asn]
            # Probe the top /64 of the AS prefix; collides with a dist
            # only if that dist covers it.
            probe_addr = prefix.last & ~0xFFFF | 1
            if any(dist.contains(probe_addr) for dist in dists):
                continue
            path = net.path_for(vantage, probe_addr)
            assert path.terminal is TerminalKind.ERROR
            return
        pytest.skip("no suitable unallocated space found")

    def test_delays_monotone(self, net):
        path = net.path_for(net.vantage("EU-NET"), first_host(net))
        delays = [delay for _, _, delay in path.hops]
        assert delays == sorted(delays)
        assert delays[0] > 0

    def test_variants_may_differ_but_same_terminal(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        paths = [net.path_for(vantage, dst, variant) for variant in range(4)]
        assert all(path.terminal == paths[0].terminal for path in paths)
        # Last hop (the gateway) is identical across variants.
        last = {path.hops[-1][1] for path in paths}
        assert len(last) == 1

    def test_a_backbone_as_transits_a_large_share_of_paths(self, net):
        """AS paths cross several ASes, and one tier-1 AS sits in the
        middle of a large share of them (the Hurricane Electric reading)."""
        vantage = net.vantage("US-EDU-1")
        ases = net.truth.ases
        transits = {}
        longest = 0
        subnets = list(net.truth.subnets.values())[::10]
        for subnet in subnets:
            as_path = []
            for router, _, _ in net.path_for(vantage, subnet.prefix.base | 1).hops:
                if not as_path or as_path[-1] != router.asn:
                    as_path.append(router.asn)
            longest = max(longest, len(as_path))
            for asn in set(as_path[1:-1]):
                transits[asn] = transits.get(asn, 0) + 1
        assert longest >= 4
        backbone = max(transits[asn] for asn in transits if ases[asn].tier == 1)
        assert backbone > 0.3 * len(subnets)


class TestProbing:
    def test_ttl_walk_reconstructs_path(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = None
        path = None
        # Pick a target whose path has no probabilistically-silent,
        # protocol-selective, or quotation-mangling hops.
        for subnet in net.truth.subnets.values():
            if not subnet.host_iids:
                continue
            candidate = subnet.host_addresses()[0]
            candidate_path = net.path_for(
                vantage, candidate, flow_variant_of(vantage.address, candidate)
            )
            if all(
                router.response_probability >= 1.0
                and router.respond_protocols is None
                and net.mangling(router.router_id) is None
                for router, _, _ in candidate_path.hops
            ):
                dst, path = candidate, candidate_path
                break
        assert dst is not None, "no clean path found in this world"
        seen = []
        for ttl in range(1, path.length + 1):
            response = net.probe(icmp_probe(vantage.address, dst, ttl), now=ttl * 10_000_000)
            assert response is not None, "hop %d silent" % ttl
            header, message = parse_icmp(response)
            assert message.is_time_exceeded
            seen.append(header.src)
        assert seen == [iface for _, iface, _ in path.hops]

    def test_quotation_contains_probe(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        probe = icmp_probe(vantage.address, dst, 2, payload=b"MAGICSTATE")
        response = net.probe(probe, now=0)
        _, message = parse_icmp(response)
        assert b"MAGICSTATE" in message.quotation

    def test_echo_reply_from_host(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        response = net.probe(icmp_probe(vantage.address, dst, 64, ident=42, seq=9), now=0)
        header, message = parse_icmp(response)
        assert message.is_echo_reply
        assert header.src == dst
        assert message.identifier == 42 and message.sequence == 9

    def test_udp_to_host_port_unreachable(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        response = net.probe(udp_probe(vantage.address, dst, 64), now=0)
        if response is None:
            pytest.skip("probabilistic loss")
        header, message = parse_icmp(response)
        assert message.code == int(UnreachableCode.PORT_UNREACHABLE)

    def test_tcp_to_host_rst(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        syn = tcp.build_segment(
            vantage.address, dst, tcp.TCPHeader(1234, 80, flags=tcp.FLAG_SYN)
        )
        packet = ipv6.build_packet(
            IPv6Header(vantage.address, dst, 0, PROTO_TCP, hop_limit=64), syn
        )
        response = net.probe(packet, now=0)
        if response is None:
            pytest.skip("probabilistic loss")
        _, payload = ipv6.split_packet(response.data)
        header, _ = tcp.split_segment(payload)
        assert header.rst

    def test_dead_iid_mostly_silent_or_unreachable(self, net):
        vantage = net.vantage("US-EDU-1")
        subnet = next(iter(net.truth.subnets.values()))
        dead = subnet.prefix.base | 0x1234_5678_1234_5678
        outcomes = set()
        for index in range(30):
            response = net.probe(
                icmp_probe(vantage.address, dead, 64, seq=index), now=index * 1_000_000
            )
            if response is None:
                outcomes.add("silent")
            else:
                _, message = parse_icmp(response)
                outcomes.add(icmpv6.classify_response(message))
        assert outcomes <= {"silent", "address unreachable"}
        assert outcomes  # something happened

    def test_unknown_source_rejected(self, net):
        dst = first_host(net)
        with pytest.raises(ValueError):
            net.probe(icmp_probe(parse("fd00::1"), dst, 4), now=0)

    def test_stats_counted(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        net.probe(icmp_probe(vantage.address, dst, 1), now=0)
        assert net.stats.probes == 1
        assert net.stats.time_exceeded + net.stats.rate_limited + net.stats.lost >= 1


class TestRateLimiting:
    def test_burst_drains_first_hop(self, net):
        """Many TTL=1 probes in a tight burst exhaust the first hop's
        bucket; the same count paced slowly does not (Figure 5)."""
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        responses = sum(
            net.probe(icmp_probe(vantage.address, dst, 1, seq=index), now=index) is not None
            for index in range(500)
        )
        assert responses < 250
        net.reset_dynamics()
        paced = sum(
            net.probe(
                icmp_probe(vantage.address, dst, 1, seq=index),
                now=index * 100_000,  # 10 pps
            )
            is not None
            for index in range(100)
        )
        assert paced >= 95

    def test_reset_restores_tokens(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        for index in range(500):
            net.probe(icmp_probe(vantage.address, dst, 1, seq=index), now=index)
        net.reset_dynamics()
        assert net.probe(icmp_probe(vantage.address, dst, 1), now=0) is not None


class TestCampaignStateOwnership:
    """Everything a campaign changes lives in the ``Internet`` that ran
    it; the built world it ran on is read-only (fingerprinted around
    every driver in ``test_world_readonly.py``)."""

    def test_two_instances_over_one_world_share_no_limiter(self):
        built = build_internet(
            InternetConfig(n_edge=12, cpe_customers_per_isp=20, seed=7, response_loss=0.0)
        )
        first, second = Internet(built), Internet(built)
        vantage = first.vantage("US-EDU-1")
        dst = first_host(first)
        when = 0
        while not first.stats.rate_limited:  # drain hop 1 through ``first``
            when += 1
            first.probe(icmp_probe(vantage.address, dst, 1, seq=when), now=when)
        assert second.probe(icmp_probe(vantage.address, dst, 1), now=when) is not None
        assert second.stats.rate_limited == 0

    def test_rewind_cost_does_not_depend_on_world_size(self, monkeypatch):
        # The ledger's ``yarrp6-walk`` at smoke size (seed 2018); at full
        # size the same walk reaches 476 of 27 537 routers.
        built = build_internet(
            InternetConfig(
                n_edge=24, cpe_customers_per_isp=40, leaves_per_alloc=(1, 2),
                hosts_per_leaf=(1, 3), seed=2018,
            )
        )
        subnets = list(built.truth.subnets.values())
        targets = [
            subnet.prefix.base | 1 for subnet in random.Random(2018).sample(subnets, 60)
        ]
        net = Internet(built)
        decided = set()

        def collect_routers(registry):
            net._limiter_observer = lambda router, now, allowed, tokens: decided.add(router)

        monkeypatch.setattr(net, "attach_observers", collect_routers)
        run_yarrp6(net, "EU-NET", targets, pps=1000.0, max_ttl=16, metrics=MetricsRegistry())
        assert set(net.router_state) == decided
        assert len(decided) == 152 and len(built.truth.routers) == 1101
        net.reset_dynamics()
        assert net.router_state == {}

        class Untouchable(dict):
            def __iter__(self):
                raise AssertionError("the rewind walked truth.routers")

            keys = values = items = __iter__

        monkeypatch.setattr(built.truth, "routers", Untouchable(built.truth.routers))
        net.reset_dynamics()
        net.fresh_run_state()
        Internet(built)


class TestDecisionOrder:
    """``probe`` picks at most one ICMPv6 error, first match wins: border
    filter, hop-limit expiry, path-terminal error."""

    @pytest.mark.parametrize(
        "blocked, hop_limit, answer",
        [
            # Filtered and expiring; then one condition fewer.
            (True, 3, (icmpv6.TYPE_DEST_UNREACH, int(UnreachableCode.ADMIN_PROHIBITED), 0, 1)),
            (False, 3, (icmpv6.TYPE_TIME_EXCEEDED, icmpv6.CODE_HOP_LIMIT_EXCEEDED, 0, 2)),
            (False, 4, (icmpv6.TYPE_DEST_UNREACH, int(UnreachableCode.NO_ROUTE), 0, 2)),
        ],
    )
    def test_first_matching_condition_answers(
        self, lossless_net, monkeypatch, blocked, hop_limit, answer
    ):
        # A fresh instance per case: its flow table holds no path an
        # earlier case's patch returned.
        net = Internet(lossless_net.built)
        vantage = net.vantage("EU-NET")
        routers = list(net.truth.routers.values())[:3]
        hops = [
            (router, router.interfaces[0], 100 * (index + 1))
            for index, router in enumerate(routers)
        ]
        path = CompiledPath(
            hops,
            TerminalKind.ERROR,
            UnreachableCode.NO_ROUTE,
            filter_index=2,
            filter_action="admin",
            blocked=frozenset({PROTO_ICMPV6} if blocked else ()),
        )
        monkeypatch.setattr(net, "path_for", lambda vantage, dst, variant=0: path)
        probe = icmp_probe(vantage.address, parse("2001:db8::1"), hop_limit, payload=b"\xa5" * 8)
        header, message = parse_icmp(net.probe(probe, now=0))
        msg_type, code, word, hop = answer
        assert (message.msg_type, message.code, message.word) == (msg_type, code, word)
        assert header.src == hops[hop][1]


class TestAnswer:
    """``answer`` is ``probe`` plus the round trip: what comes back and
    when, for the caller to hold until its clock gets there."""

    def test_dropped_probe_answers_nothing(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        when = 0
        while not net.stats.rate_limited:  # drain the first hop's bucket
            when += 1
            net.probe(icmp_probe(vantage.address, dst, 1, seq=when), now=when)
        assert net.answer(icmp_probe(vantage.address, dst, 1), when) is None

    @pytest.mark.parametrize("when", (0, 5000))
    def test_answered_probe_arrives_after_the_round_trip(self, net, when):
        vantage = net.vantage("US-EDU-1")
        packet = icmp_probe(vantage.address, first_host(net), 3)
        response = net.probe(packet, now=when)
        assert response is not None
        net.fresh_run_state()
        assert net.answer(packet, when) == (when + response.delay_us, response.data)


def variant_of(packet):
    """The ECMP variant ``packet``'s own flow picks."""
    header = IPv6Header.unpack(packet)
    return flow_variant(header.src, header.dst, header.next_header, header.flow_label, packet)


def with_flow_label(packet, flow_label):
    """``packet`` with the 20-bit flow label of its first word set."""
    first_word = int.from_bytes(packet[:4], "big") | flow_label
    return first_word.to_bytes(4, "big") + packet[4:]


def flow_of(packet):
    """What a destination's slot compares: the first 44 bytes less the
    hop limit."""
    return packet[:7] + packet[8:44]


def with_byte(packet, offset, value):
    """``packet`` with the byte at ``offset`` set to ``value``."""
    return packet[:offset] + bytes([value]) + packet[offset + 1:]


class TestFlowPathChoice:
    """``probe`` walks ``path_for(vantage, dst, flow_variant(header,
    payload))`` — the packet's own flow picks the ECMP variant."""

    @staticmethod
    def flows(net):
        """IPv6 flow labels x the three protocols, toward a host, toward
        the gateway interface sharing that host's /64, and toward a second
        /64.  The label sits in the header's first word, outside every
        checksum, so each labelled probe is still a well-formed probe."""
        vantage = net.vantage("EU-NET")
        subnets = [
            subnet
            for subnet in net.truth.subnets.values()
            if subnet.host_iids and subnet.gateway_addr in net.truth.router_addresses
        ]
        host = subnets[0].host_addresses()[0]
        assert host >> 64 == subnets[0].gateway_addr >> 64
        targets = [host, subnets[0].gateway_addr, subnets[1].host_addresses()[0]]
        return vantage, [
            with_flow_label(
                encode_probe(vantage.address, target, ttl, 0, protocol=protocol), flow_label
            )
            for target in targets
            for protocol in ("icmp6", "udp", "tcp")
            for flow_label in range(8)
            for ttl in (2, 9)
        ]

    def check(self, net, monkeypatch):
        vantage, packets = self.flows(net)
        asked = []
        path_for = net.path_for

        def spy(vantage, dst, variant=0):
            asked.append((vantage, dst, variant))
            return path_for(vantage, dst, variant)

        monkeypatch.setattr(net, "path_for", spy)
        picked = set()
        last_flow = {}
        resolved = 0
        for packet in packets:
            del asked[:]
            net.probe(packet, now=0)
            header = IPv6Header.unpack(packet)
            variant = flow_variant(
                header.src, header.dst, header.next_header, header.flow_label, packet
            )
            # A flow is resolved once per destination: a probe repeating
            # the last flow sent there asks for nothing, any other for
            # its variant's path.
            flow = flow_of(packet)
            new = last_flow.get(header.dst) != flow
            last_flow[header.dst] = flow
            assert asked == ([(vantage, header.dst, variant)] if new else [])
            resolved += new
            picked.add(id(path_for(vantage, header.dst, variant)))
        # Each flow is sent at two hop limits, back to back; one slot a target.
        assert 2 * resolved == len(packets) and len(net._flows) == 3
        return picked

    def test_probe_picks_the_flow_variants_path(self, net, monkeypatch):
        picked = self.check(net, monkeypatch)
        # The mix exercises real ECMP choice, and the router interface
        # does not share the host's path although it shares its /64.
        assert len(picked) > 3
        # The rewind keeps the compiled paths, and the choice with them.
        monkeypatch.undo()
        net.fresh_run_state()
        assert self.check(net, monkeypatch) == picked

    def test_same_responses_cold_and_warm(self, small_built):
        """A warm path cache changes nothing observable: a rewound world
        answers the same stream byte for byte."""
        world = Internet(small_built)
        _, packets = self.flows(world)

        def replay():
            world.fresh_run_state()
            out = []
            for index, packet in enumerate(packets):
                response = world.probe(packet, now=index * 1000)
                out.append(response and (response.delay_us, response.data))
            return out

        cold = replay()
        assert any(cold) and world._path_cache
        assert replay() == cold

    def test_unknown_vantage_raises_before_any_lookup(self, net):
        paths = dict(net._path_cache)
        packet = encode_probe(parse("2001:db8:dead::1"), first_host(net), 3, 0)
        for _ in range(3):  # on every repetition: nothing is kept
            with pytest.raises(ValueError, match="not a configured vantage"):
                net.probe(packet, now=0)
        assert net._path_cache == paths and net._flows == {}

    def test_the_flow_label_alone_moves_a_probe_between_variants(self, net):
        vantage = net.vantage("US-EDU-1")
        probe = encode_probe(vantage.address, first_host(net), 5, 0)
        variants = {variant_of(with_flow_label(probe, label)) for label in range(8)}
        assert len(variants) > 1

    def test_one_flow_keeps_its_variant_across_ttl_and_time(self, net):
        vantage = net.vantage("US-EDU-1")
        for subnet in list(net.truth.subnets.values())[:10]:
            target = subnet.prefix.base | 1
            for protocol in ("icmp6", "udp", "tcp"):
                variants = {
                    variant_of(
                        encode_probe(vantage.address, target, ttl, elapsed, protocol=protocol)
                    )
                    for ttl in (1, 5, 16, 32)
                    for elapsed in (0, 999_999)
                }
                assert len(variants) == 1, (hex(target), protocol)

    def test_variants_expose_parallel_interfaces(self, net):
        """Some hop of some path has a load-balanced sibling: another
        variant reaches the same destination through another interface."""
        vantage = net.vantage("US-EDU-1")
        parallel = 0
        for subnet in list(net.truth.subnets.values())[:40]:
            paths = [net.path_for(vantage, subnet.prefix.base | 1, variant) for variant in range(4)]
            length = min(path.length for path in paths)
            parallel += sum(
                len({path.hops[index][1] for path in paths}) > 1 for index in range(length)
            )
        assert parallel


class TestFlowSlot:
    """``probe`` keeps one slot per destination address: the flow of the
    last well-formed probe sent there with the vantage, next header and
    path it resolved to.  A probe repeating that flow skips the
    resolution; any other is resolved again and answers exactly as a
    fresh ``Internet`` does (the lossless world answers each probe as a
    pure function of its bytes)."""

    @pytest.fixture()
    def slotted(self, lossless_net, monkeypatch):
        """A fresh instance with one ICMPv6 probe's flow slotted, the
        probe, and the ``path_for`` calls made since."""
        net = Internet(lossless_net.built)
        vantage = net.vantage("EU-NET")
        packet = encode_probe(vantage.address, first_host(net), 5, 0)
        asked = []
        path_for = net.path_for

        def spy(vantage, dst, variant=0):
            asked.append(dst)
            return path_for(vantage, dst, variant)

        monkeypatch.setattr(net, "path_for", spy)
        net.probe(packet, now=0)
        path = path_for(vantage, asked[0], variant_of(packet))
        assert net._flows == {packet[24:40]: (flow_of(packet), vantage, PROTO_ICMPV6, path)}
        del asked[:]
        return net, packet, asked

    @staticmethod
    def answers(net, packet):
        """``net.probe(packet)`` as comparable data: the response, None, or
        the message of the error it raised."""
        try:
            response = net.probe(packet, now=0)
        except ValueError as error:
            return str(error)
        return response and tuple(response)

    @pytest.mark.parametrize(
        "offset, value",
        [
            (7, 1),    # hop limit
            (7, 0),
            (7, 60),   # past the path: the host answers
            (44, 0xEE),  # first byte past the flow
            (-1, 0xEE),  # last byte
        ],
    )
    def test_a_probe_differing_only_in_hop_limit_or_past_44_bytes_reuses_the_slot(
        self, slotted, offset, value
    ):
        net, packet, asked = slotted
        changed = with_byte(packet, offset % len(packet), value)
        assert changed != packet and flow_of(changed) == flow_of(packet)
        assert self.answers(net, changed) == self.answers(Internet(net.built), changed)
        assert asked == [] and len(net._flows) == 1

    @pytest.mark.parametrize(
        "offset, value",
        [
            (3, 0x01),   # flow label
            (1, 0x0F),   # flow label, high nibble
            (6, PROTO_UDP),  # next header
            (39, 0x07),  # destination
            (40, 0x81),  # transport bytes 40-43: ICMPv6 type,
            (41, 0x01),  # code,
            (42, 0x00),  # checksum
            (43, 0x00),
        ],
    )
    def test_a_probe_differing_in_a_flow_byte_is_resolved_again(
        self, slotted, offset, value
    ):
        net, packet, asked = slotted
        changed = with_byte(packet, offset, value)
        assert changed != packet
        assert self.answers(net, changed) == self.answers(Internet(net.built), changed)
        assert asked == [int.from_bytes(changed[24:40], "big")]
        # The new flow takes its destination's slot, whichever that is.
        assert net._flows[changed[24:40]][0] == flow_of(changed)
        assert len(net._flows) == 1 + (offset == 39)

    def test_a_probe_from_another_source_is_resolved_again(self, slotted):
        net, packet, asked = slotted
        changed = with_byte(packet, 23, packet[23] ^ 0x01)
        fresh = Internet(net.built)
        for _ in range(3):
            with pytest.raises(ValueError, match="not a configured vantage"):
                net.probe(changed, now=0)
            assert self.answers(net, changed) == self.answers(fresh, changed)
        assert asked == [] and net._flows[packet[24:40]][0] == flow_of(packet)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda packet: packet[:39],  # short of a header
            lambda packet: packet[:20],
            lambda packet: b"",
            lambda packet: with_byte(packet, 0, 0x40 | packet[0] & 0x0F),  # IPv4
        ],
        ids=["39-bytes", "20-bytes", "empty", "version-4"],
    )
    def test_a_malformed_packet_raises_every_time_and_is_never_stored(
        self, lossless_net, mangle
    ):
        net = Internet(lossless_net.built)
        packet = encode_probe(net.vantage("EU-NET").address, first_host(net), 5, 0)
        bad = mangle(packet)
        for _ in range(3):
            with pytest.raises(ipv6.PacketError):
                net.probe(bad, now=0)
        assert net._flows == {}
        # Nor does a well-formed flow's slot let one through.
        net.probe(packet, now=0)
        for _ in range(3):
            with pytest.raises(ipv6.PacketError):
                net.probe(bad, now=0)
        assert list(net._flows.values())[0][0] == flow_of(packet) and len(net._flows) == 1

    def test_the_rewind_empties_the_table(self, slotted):
        net, packet, asked = slotted
        net.reset_dynamics()
        assert net._flows == {}
        net.probe(packet, now=0)
        assert len(asked) == 1 and len(net._flows) == 1
        net.fresh_run_state()
        assert net._flows == {}

    @pytest.mark.parametrize(
        "run",
        [
            lambda net, targets: run_yarrp6(net, "EU-NET", targets, pps=2000.0, max_ttl=16),
            # One flow per probe: every echo request carries its own
            # sequence number and checksum.
            lambda net, targets: run_speedtrap(net, "EU-NET", targets),
        ],
        ids=["yarrp6-walk", "speedtrap"],
    )
    def test_a_campaign_leaves_at_most_one_slot_per_target(self, small_built, run):
        net = Internet(small_built)
        truth = small_built.truth
        targets = [subnet.prefix.base | 1 for subnet in list(truth.subnets.values())[:40]]
        targets += [router.interfaces[0] for router in list(truth.routers.values())[:20]]
        run(net, targets)
        assert net.stats.probes > 2 * len(targets)
        assert 0 < len(net._flows) and set(net._flows) <= {
            target.to_bytes(16, "big") for target in targets
        }


class TestFiltering:
    def test_blocked_protocols_filtered_past_border(self, net):
        """Find an AS that blocks UDP and show ICMPv6 penetrates deeper."""
        for asn in net.built.edge_asns:
            asys = net.truth.ases[asn]
            if PROTO_UDP not in asys.policy.blocked_protocols:
                continue
            if PROTO_ICMPV6 in asys.policy.blocked_protocols:
                continue  # admin firewall: ICMPv6 can't penetrate either
            if not asys.plan.leaves:
                continue
            dst = asys.plan.leaves[0].prefix.base | 1
            vantage = net.vantage("US-EDU-1")
            # Resolve the path this exact UDP flow will take, so the TTL
            # lands beyond its filtering border.
            deep = udp_probe(vantage.address, dst, 64)
            variant = flow_variant(vantage.address, dst, PROTO_UDP, 0, deep)
            udp_path = net.path_for(vantage, dst, variant)
            deep = udp_probe(vantage.address, dst, udp_path.length)
            response = net.probe(deep, now=0)
            if response is not None:
                _, message = parse_icmp(response)
                assert message.code == int(UnreachableCode.ADMIN_PROHIBITED)
            assert net.stats.filtered >= 1
            # ICMPv6 to the same depth gets a time exceeded (modulo loss).
            net.reset_dynamics()
            icmp_len = net.path_for(
                vantage, dst, flow_variant_of(vantage.address, dst)
            ).length
            got = net.probe(icmp_probe(vantage.address, dst, icmp_len), now=0)
            if got is not None:
                _, message = parse_icmp(got)
                assert message.is_time_exceeded
            return
        pytest.skip("no UDP-blocking AS in this world")

    def test_filter_does_not_affect_shallow_ttl(self, net):
        """TTL expiring before the filtering border still elicits TE."""
        for asn in net.built.edge_asns:
            asys = net.truth.ases[asn]
            if not asys.policy.blocked_protocols or not asys.plan.leaves:
                continue
            blocked_proto = next(iter(asys.policy.blocked_protocols))
            if blocked_proto != PROTO_UDP:
                continue
            dst = asys.plan.leaves[0].prefix.base | 1
            vantage = net.vantage("US-EDU-1")
            response = net.probe(udp_probe(vantage.address, dst, 1), now=0)
            if response is not None:
                _, message = parse_icmp(response)
                assert message.is_time_exceeded
            return
        pytest.skip("no UDP-blocking AS in this world")


def flow_variant_of(src, dst):
    """Variant the simulator will pick for our standard ICMP probe."""
    return flow_variant(src, dst, PROTO_ICMPV6, 0, icmp_probe(src, dst, 5))


@pytest.fixture(scope="module")
def lossless_net():
    """A world that never drops or rate-limits a response."""
    return Internet(
        config=decoupled_dynamics(
            InternetConfig(n_edge=12, cpe_customers_per_isp=20, seed=7)
        )
    )


class TestHostResponse:
    """What the destination itself does with a probe that reaches it: an
    Echo Request is answered, a too-small Packet Too Big to a router
    plants atomic-fragment state, anything else is dropped."""

    @pytest.fixture()
    def world(self, lossless_net):
        net = Internet(lossless_net.built)
        vantage = net.vantage("EU-NET")
        return net, vantage.address, first_host(net)

    @staticmethod
    def send(net, src, dst, next_header, segment, now=0):
        return net.probe(
            ipv6.build_packet(IPv6Header(src, dst, 0, next_header, hop_limit=64), segment), now
        )

    @staticmethod
    def answering_router(net, src):
        """A router interface on the path to the first host that answers
        an Echo Request addressed to it."""
        for router, iface, _ in net.path_for(net._vantage_by_addr[src], first_host(net)).hops:
            if net.probe(icmp_probe(src, iface, 64), 0) is not None:
                return router, iface
        raise AssertionError("no router on the path answers")

    def test_a_host_ignores_a_truncated_icmpv6_message(self, world):
        net, src, host = world
        assert self.send(net, src, host, PROTO_ICMPV6, b"\x80\x00") is None
        assert net.stats.echo_replies == 0

    def test_a_host_ignores_icmpv6_other_than_an_echo_request(self, world):
        net, src, host = world
        reply = icmpv6.echo_reply(7, 1).pack(src, host)
        assert self.send(net, src, host, PROTO_ICMPV6, reply) is None
        assert net.stats.echo_replies == 0

    def test_a_host_ignores_a_truncated_tcp_segment(self, world):
        net, src, host = world
        assert self.send(net, src, host, PROTO_TCP, b"\x12\x34\x00\x50") is None
        assert net.stats.tcp_responses == 0

    def test_a_host_ignores_an_unknown_transport(self, world):
        net, src, host = world
        assert self.send(net, src, host, 59, b"") is None  # No Next Header
        assert net.stats.echo_replies == net.stats.tcp_responses == 0

    @pytest.mark.parametrize("mtu, atomic", [(icmpv6.MINIMUM_MTU - 1, True), (icmpv6.MINIMUM_MTU, False)])
    def test_only_a_packet_too_big_under_the_minimum_plants_atomic_fragments(
        self, world, mtu, atomic
    ):
        net, src, _ = world
        router, iface = self.answering_router(net, src)
        net.fresh_run_state()
        quoted = icmp_probe(iface, src, 64)[: icmpv6.MAX_QUOTATION]
        ptb = icmpv6.ICMPv6Message(icmpv6.TYPE_PACKET_TOO_BIG, 0, mtu, quoted).pack(src, iface)
        assert self.send(net, src, iface, PROTO_ICMPV6, ptb) is None
        response = net.probe(icmp_probe(src, iface, 64), 1_000_000)
        header, payload = ipv6.split_packet(response.data)
        assert (header.next_header == fragment.PROTO_FRAGMENT) is atomic
        assert (router.router_id in net.router_state) is atomic

    def test_a_packet_too_big_to_a_host_plants_nothing(self, world):
        net, src, host = world
        quoted = icmp_probe(host, src, 64)[: icmpv6.MAX_QUOTATION]
        ptb = icmpv6.ICMPv6Message(icmpv6.TYPE_PACKET_TOO_BIG, 0, 1000, quoted).pack(src, host)
        assert self.send(net, src, host, PROTO_ICMPV6, ptb) is None
        header, _ = ipv6.split_packet(net.probe(icmp_probe(src, host, 64), 1_000_000).data)
        assert header.next_header == PROTO_ICMPV6

    def test_a_protocol_selective_router_answers_only_its_protocols(self, world):
        """A hop that answers only ICMPv6 probes (one paper vantage saw
        one) stays silent to a UDP or TCP probe that expires on it."""
        net, src, host = world
        router = Router(10**9, 64500, RouterRole.CORE, 1000.0, 100.0, {PROTO_ICMPV6})
        router.interfaces.append(parse("2001:db8::1"))
        hop = (router, router.interfaces[0], 500)

        def error_for(packet):
            return net._icmp_error(
                hop, icmpv6.TYPE_TIME_EXCEEDED, 0, 0, packet, packet[6], src, 0
            )

        assert error_for(udp_probe(src, host, 3)) is None
        assert error_for(encode_probe(src, host, 3, 0, protocol="tcp")) is None
        assert error_for(icmp_probe(src, host, 3)) is not None


class TestHopLimitZero:
    """RFC 8200: the first router discards a packet that arrives with hop
    limit 0 and reports it, as it does one with hop limit 1 — not the
    path's last hop, which ``hops[hop_limit - 1]`` would pick.  No prober
    sends one (``ProbeSchedule`` refuses TTL 0)."""

    def test_answered_by_the_first_hop_like_hop_limit_one(self, lossless_net):
        # A fresh instance per case: its flow table holds no path an
        # earlier case's patch returned.
        net = Internet(lossless_net.built)
        vantage = net.vantage("EU-NET")
        target = first_host(net)
        answers = []
        for ttl in (0, 1):
            net.fresh_run_state()
            response = net.probe(encode_probe(vantage.address, target, ttl, 0), now=0)
            header, message = parse_icmp(response)
            answers.append((response.delay_us, header.src, message.msg_type, message.code))
        _, first_iface = vantage.premise_chain[0]
        assert net.trace_path("EU-NET", target).length > 1
        assert answers[0] == answers[1]
        assert answers[0][1:] == (first_iface, icmpv6.TYPE_TIME_EXCEEDED, 0)


class TestQuotationMisbehaviour:
    def test_some_routers_mangle_or_truncate(self, net):
        """The deterministic mangler assignment marks a small router subset."""
        manglers = {
            router_id: net.mangling(router_id)
            for router_id in net.truth.routers
            if net.mangling(router_id) is not None
        }
        assert set(manglers.values()) <= {"rewrite", "truncate"}
        assert 0 < len(manglers) < len(net.truth.routers) * 0.1

    @pytest.mark.parametrize(
        "msg_type, code, word",
        [
            (icmpv6.TYPE_TIME_EXCEEDED, icmpv6.CODE_HOP_LIMIT_EXCEEDED, 0),
            (icmpv6.TYPE_DEST_UNREACH, int(UnreachableCode.ADMIN_PROHIBITED), 0),
            (icmpv6.TYPE_PACKET_TOO_BIG, 0, 1480),
        ],
    )
    def test_error_bytes_match_layered_build(self, lossless_net, msg_type, code, word):
        """What a router emits is header-over-message-over-pseudo-header
        construction of its (possibly mangled) quotation, byte for byte."""
        # A fresh instance per case: its flow table holds no path an
        # earlier case's patch returned.
        net = Internet(lossless_net.built)
        vantage = net.vantage("EU-NET")
        short = encode_probe(vantage.address, first_host(net), 4, 77, protocol="udp")
        oversized = icmp_probe(vantage.address, first_host(net), 4, payload=b"\xa5" * 1399)
        by_behaviour = {}
        for router in net.truth.routers.values():
            if router.respond_protocols is None:
                by_behaviour.setdefault(net.mangling(router.router_id), router)
        assert set(by_behaviour) == {None, "truncate", "rewrite"}
        for behaviour, router in by_behaviour.items():
            iface = router.interfaces[0]
            for invoking in (short, oversized):
                quotation = invoking[: icmpv6.MAX_QUOTATION]
                if behaviour == "truncate":
                    quotation = quotation[:48]
                elif behaviour == "rewrite":
                    quotation = (
                        quotation[:38] + bytes([quotation[38] ^ 0x55]) + quotation[39:]
                    )
                response = net._icmp_error(
                    (router, iface, 500),
                    msg_type,
                    code,
                    word,
                    invoking,
                    invoking[6],
                    vantage.address,
                    0,
                )
                assert response.data == ipv6.build_packet(
                    IPv6Header(iface, vantage.address, 0, PROTO_ICMPV6),
                    icmpv6.ICMPv6Message(msg_type, code, word, quotation).pack(
                        iface, vantage.address
                    ),
                )


class TestTunnelMtu:
    """The world draws link MTUs: a 6in4-tunnelled AS's links run at 1480
    bytes and the 6to4 relay's at the IPv6 minimum.  No probe a driver
    sends comes near either (``TestProbesFitTheMinimumMtu``)."""

    @pytest.fixture(scope="class")
    def built(self):
        return build_internet(
            InternetConfig(
                n_edge=60,
                cpe_customers_per_isp=150,
                seed=47,
                tunnel_fraction=0.3,  # plenty of 1480 paths
                response_loss=0.0,
            )
        )

    def test_tunnelled_ases_exist(self, built):
        assert [a for a in built.truth.ases.values() if a.link_mtu == 1480]

    def test_the_6to4_relay_runs_at_the_floor(self, built):
        (relay,) = [a for a in built.truth.ases.values() if a.name == "6TO4-RELAY"]
        assert relay.link_mtu == icmpv6.MINIMUM_MTU
        net = Internet(built)
        path = net.path_for(net.vantage("US-EDU-1"), parse("2002:c000:201::1"), 0)
        assert path.hops[-1][0].asn == relay.asn


#: The smoke world (``tests/netsim/test_build.py``'s ``SMOKE``).
SMOKE = InternetConfig(n_edge=30, cpe_customers_per_isp=150, seed=5)


@pytest.fixture(scope="module")
def smoke_built():
    return build_internet(SMOKE)


class TestGatewaysAreRouters:
    """A leaf's gateway address is one of its router's interfaces, so a
    path to it ends at that router: ``_deliver_lan`` never sees a probe
    to the gateway's own LAN address."""

    def test_every_gateway_address_is_a_router_address(self, smoke_built):
        truth = smoke_built.truth
        assert truth.subnets
        for subnet in truth.subnets.values():
            assert truth.router_addresses.get(subnet.gateway_addr) is subnet.gateway

    def test_a_path_to_a_gateway_ends_at_its_router(self, smoke_built):
        net = Internet(smoke_built)
        for vantage in smoke_built.vantages.values():
            for subnet in smoke_built.truth.subnets.values():
                path = net.path_for(vantage, subnet.gateway_addr, 0)
                assert path.terminal is TerminalKind.ROUTER
                assert path.hops[-1][:2] == (subnet.gateway, subnet.gateway_addr)


    def test_a_host_path_is_cached_apart_from_its_gateway(self, smoke_built):
        """The gateway and its hosts share a /64, but the gateway's path
        (compiled first here) ends at the router and theirs on the LAN."""
        net = Internet(smoke_built)
        vantage = smoke_built.vantages["US-EDU-1"]
        routers = smoke_built.truth.router_addresses
        hosted = [
            (subnet, address)
            for subnet in smoke_built.truth.subnets.values()
            for address in [a for a in subnet.host_addresses() if a not in routers][:1]
        ]
        assert hosted
        for subnet, address in hosted:
            assert net.path_for(vantage, subnet.gateway_addr, 0).terminal is TerminalKind.ROUTER
            host = net.path_for(vantage, address, 0)
            assert host.terminal is TerminalKind.LAN
            assert host.hops[-1][0] is subnet.gateway


class TestTier1Transit:
    """Two tier-2 ASes meet at one uplink they share, or else cross from
    one's uplink to the other's, which are then distinct: a common uplink
    is always found as shared first."""

    def test_the_tier1_hops_between_two_tier2_ases(self, smoke_built):
        net = Internet(smoke_built)
        uplinks = smoke_built.uplinks
        tier2 = smoke_built.tier2_asns
        crossings = 0
        for a in tier2:
            for b in tier2:
                if a == b:
                    continue
                shared = set(uplinks[a]) & set(uplinks[b])
                for variant in range(4):
                    route = net._pick_shared_tier1(a, b, variant)
                    if shared:
                        assert len(route) == 1 and route[0] in shared
                    else:
                        crossings += 1
                        assert route[0] in uplinks[a] and route[1] in uplinks[b]
                        assert route[0] != route[1]
        assert crossings

    def test_every_path_visits_each_as_in_one_run(self, smoke_built):
        net = Internet(smoke_built)
        subnets = list(smoke_built.truth.subnets.values())[::7]
        for vantage in smoke_built.vantages.values():
            for subnet in subnets:
                for variant in range(4):
                    path = net.path_for(vantage, subnet.prefix.base | 1, variant)
                    runs = [router.asn for router, _, _ in path.hops]
                    runs = [asn for at, asn in enumerate(runs) if not at or runs[at - 1] != asn]
                    assert len(runs) == len(set(runs)), runs


#: Every driver that hands probes to ``Internet.answer``: each prober
#: kind under each protocol, fill, the adaptive walk, Speedtrap (its
#: Packet Too Big lure included) and limiter inference.
SIZE_DRIVERS = {
    **{
        "%s[%s]" % (kind, protocol): (
            lambda net, targets, kind=kind, protocol=protocol: run_campaign(
                net, "US-EDU-1", targets, kind, config=PROBERS[kind].Config(protocol=protocol)
            )
        )
        for kind in PROBERS
        for protocol in PROTOCOLS
    },
    "yarrp6[fill]": lambda net, targets: run_campaign(
        net, "US-EDU-1", targets, "yarrp6", config=Yarrp6Config(max_ttl=8, fill=True)
    ),
    "adaptive": lambda net, targets: run_adaptive_yarrp6(net, "US-EDU-1", targets),
    "speedtrap": lambda net, targets: run_speedtrap(
        net, "US-EDU-1", router_aliases(net.truth, 24)
    ),
    "infer_limiter": lambda net, targets: infer_limiter(
        net, "US-EDU-1", targets[0], 2,
        LimiterProbeConfig(burst_probes=20, scan_rates=(100.0,), scan_seconds=0.2),
    ),
}


class TestProbesFitTheMinimumMtu:
    """No driver sends a probe over the IPv6 minimum MTU, so no link MTU
    the world draws (at least 1280, ``TestTunnelMtu``) ever refuses one:
    the model has no on-path Packet Too Big to send."""

    @pytest.mark.parametrize("driver", sorted(SIZE_DRIVERS))
    def test_every_probe_fits(self, smoke_built, monkeypatch, driver):
        net = Internet(smoke_built)
        answer = net.answer
        sizes = []

        def measured(data, when):
            sizes.append(len(data))
            return answer(data, when)

        monkeypatch.setattr(net, "answer", measured)
        leaves = leaf_targets(smoke_built.truth, 12)
        gateways = [smoke_built.truth.subnet_of(leaf).gateway_addr for leaf in leaves]
        SIZE_DRIVERS[driver](net, leaves + gateways)
        assert sizes
        assert max(sizes) <= icmpv6.MINIMUM_MTU


class TestAliasedSubnets:
    """An aliased /64 (a middlebox answering for every address) answers
    an Echo Request to any IID; an ordinary LAN does not."""

    @pytest.fixture(scope="class")
    def built(self):
        return build_internet(
            InternetConfig(
                n_edge=40,
                cpe_customers_per_isp=100,
                seed=41,
                aliased_subnet_fraction=0.1,
                response_loss=0.0,
            )
        )

    @staticmethod
    def reachable_leaves(built):
        """Aliased and ordinary leaves, less those behind a border that
        filters ICMPv6 (where no Echo Request gets through at all)."""
        aliased, ordinary = [], []
        for subnet in built.truth.subnets.values():
            if PROTO_ICMPV6 in built.truth.ases[subnet.gateway.asn].policy.blocked_protocols:
                continue
            (aliased if subnet.aliased else ordinary).append(subnet)
        return aliased, ordinary

    def test_some_subnets_are_aliased(self, built):
        aliased, ordinary = self.reachable_leaves(built)
        assert aliased
        assert ordinary

    def test_aliased_subnet_answers_a_random_iid(self, built):
        net = Internet(built)
        vantage = net.vantage("US-EDU-1")
        aliased, ordinary = self.reachable_leaves(built)

        def echo_replied(subnet):
            target = subnet.prefix.base | 0xDEAD_BEEF_CAFE_F00D
            assert not subnet.has_host(target)
            response = net.probe(icmp_probe(vantage.address, target, 64), 0)
            return response is not None and parse_icmp(response)[1].is_echo_reply

        assert echo_replied(aliased[0])
        assert not any(echo_replied(subnet) for subnet in ordinary[:20])

    def test_the_reply_comes_from_the_probed_address(self, built):
        net = Internet(built)
        vantage = net.vantage("US-EDU-1")
        aliased, _ = self.reachable_leaves(built)
        for subnet in aliased[:10]:
            target = subnet.prefix.base | 0x0123_4567_89AB_CDEF
            response = net.probe(icmp_probe(vantage.address, target, 64, ident=5, seq=6), 0)
            header, message = parse_icmp(response)
            assert header.src == target
            assert (message.identifier, message.sequence) == (5, 6)

    def test_an_aliased_subnet_resets_a_tcp_syn_to_any_iid(self, built):
        net = Internet(built)
        vantage = net.vantage("US-EDU-1")
        aliased, _ = self.reachable_leaves(built)
        target = aliased[0].prefix.base | 0xDEAD_BEEF_CAFE_F00D
        response = net.probe(encode_probe(vantage.address, target, 64, 0, protocol="tcp"), 0)
        header, payload = ipv6.split_packet(response.data)
        assert header.src == target
        assert tcp.split_segment(payload)[0].rst

    def test_a_filtering_border_hides_an_aliased_subnet(self, built):
        net = Internet(built)
        vantage = net.vantage("US-EDU-1")
        hidden = [
            subnet
            for subnet in built.truth.subnets.values()
            if subnet.aliased
            and PROTO_ICMPV6 in built.truth.ases[subnet.gateway.asn].policy.blocked_protocols
        ]
        assert hidden
        for subnet in hidden:
            target = subnet.prefix.base | 0xDEAD_BEEF_CAFE_F00D
            response = net.probe(icmp_probe(vantage.address, target, 64), 0)
            assert response is None or not parse_icmp(response)[1].is_echo_reply
        assert net.stats.echo_replies == 0
        assert net.stats.filtered == len(hidden)

    def test_no_residential_lan_is_aliased(self, built):
        residential = [
            subnet
            for subnet in built.truth.subnets.values()
            if built.truth.ases[subnet.gateway.asn].address_plan is AddressPlan.EUI64
        ]
        assert residential
        assert not any(subnet.aliased for subnet in residential)

    def test_a_zero_fraction_plants_none(self):
        built = build_internet(
            InternetConfig(n_edge=12, cpe_customers_per_isp=20, seed=41, aliased_subnet_fraction=0.0)
        )
        assert not any(subnet.aliased for subnet in built.truth.subnets.values())


class TestProtocolSelectiveHops:
    """About 1 % of routers answer ICMPv6 probes only (``respond =
    {PROTO_ICMPV6}``, ``icmp_only_router_fraction``): the protocol
    dependence of §4.2.  A Yarrp6 campaign meets them: on the seed-9
    world, at 1 kpps over 200 leaf targets, the branch in
    ``Internet._icmp_error`` silences 9 hops under UDP, 8 under TCP and
    none under ICMPv6.  Deleting the branch would move §4.2's protocol
    bytes."""

    @pytest.fixture(scope="class")
    def built(self):
        return build_internet(InternetConfig(n_edge=20, cpe_customers_per_isp=60, seed=9))

    @pytest.mark.parametrize("protocol", ["udp", "tcp", "icmp6"])
    def test_campaign_meets_protocol_selective_silence(self, built, protocol):
        subnets = sorted(built.truth.subnets.values(), key=lambda subnet: subnet.prefix.base)
        targets = [subnet.prefix.base | 0x1234 for subnet in subnets[:200]]
        net = Internet(built)
        seen = []
        icmp_error = net._icmp_error

        def counting(hop, msg_type, code, word, invoking, next_header, src, now):
            response = icmp_error(hop, msg_type, code, word, invoking, next_header, src, now)
            respond = hop[0].respond_protocols
            if respond is not None and next_header not in respond:
                seen.append(response)
            return response

        net._icmp_error = counting
        run_yarrp6(net, "US-EDU-1", targets, pps=1000, protocol=protocol)
        assert bool(seen) == (protocol != "icmp6")
        assert seen == [None] * len(seen)


class TestCheckVantage:
    def test_a_configured_name_passes(self):
        check_vantage("EU-NET", ("US-EDU-1", "EU-NET"))

    def test_an_unknown_name_lists_the_configured_ones_sorted(self):
        with pytest.raises(ValueError) as refusal:
            check_vantage("eu-net", ("US-EDU-1", "EU-NET"))
        assert str(refusal.value) == "unknown vantage 'eu-net' (configured: EU-NET, US-EDU-1)"
