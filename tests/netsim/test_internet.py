"""Integration tests for the packet-level internet simulator."""

import random

import pytest

from repro.addrs import format_address, parse
from repro.netsim import (
    CompiledPath,
    Internet,
    InternetConfig,
    TerminalKind,
    build_internet,
    decoupled_dynamics,
)
from repro.netsim.ecmp import flow_variant
from repro.netsim.engine import Engine
from repro.obs import Tracer
from repro.packet import icmpv6, ipv6, tcp, udp
from repro.packet.icmpv6 import UnreachableCode
from repro.packet.ipv6 import IPv6Header, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP
from repro.prober import run_yarrp6
from repro.prober.encoding import encode_probe


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
        tracer = Tracer()
        run_yarrp6(net, "EU-NET", targets, pps=1000.0, max_ttl=16, tracer=tracer)
        decided = {
            span.attrs["router"] for span in tracer.spans if span.name == "limiter.decision"
        }
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
    filter, MTU break, hop-limit expiry, path-terminal error."""

    @pytest.mark.parametrize(
        "blocked, payload, hop_limit, answer",
        [
            # Filtered and oversized and expiring; then one condition fewer.
            (True, 1300, 3, (icmpv6.TYPE_DEST_UNREACH, int(UnreachableCode.ADMIN_PROHIBITED), 0, 1)),
            (False, 1300, 3, (icmpv6.TYPE_PACKET_TOO_BIG, 0, 1280, 1)),
            (False, 8, 3, (icmpv6.TYPE_TIME_EXCEEDED, icmpv6.CODE_HOP_LIMIT_EXCEEDED, 0, 2)),
            (False, 8, 4, (icmpv6.TYPE_DEST_UNREACH, int(UnreachableCode.NO_ROUTE), 0, 2)),
        ],
    )
    def test_first_matching_condition_answers(
        self, lossless_net, monkeypatch, blocked, payload, hop_limit, answer
    ):
        net = lossless_net
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
            mtu_profile=[1500, 1280, 1500],
        )
        monkeypatch.setattr(net, "path_for", lambda vantage, dst, variant=0: path)
        probe = icmp_probe(
            vantage.address, parse("2001:db8::1"), hop_limit, payload=b"\xa5" * payload
        )
        assert (len(probe) > 1280) == (payload == 1300)
        header, message = parse_icmp(net.probe(probe, now=0))
        msg_type, code, word, hop = answer
        assert (message.msg_type, message.code, message.word) == (msg_type, code, word)
        assert header.src == hops[hop][1]


class TestExchange:
    """``exchange`` is ``probe`` plus the round trip on the engine."""

    def test_dropped_probe_schedules_nothing(self, net):
        vantage = net.vantage("US-EDU-1")
        dst = first_host(net)
        when = 0
        while not net.stats.rate_limited:  # drain the first hop's bucket
            when += 1
            net.probe(icmp_probe(vantage.address, dst, 1, seq=when), now=when)
        engine = Engine()
        calls = []
        net.exchange(
            engine,
            icmp_probe(vantage.address, dst, 1),
            when,
            lambda data, sent_at: calls.append(data),
        )
        assert engine.pending == 0
        engine.run()
        assert calls == []

    # The block loop injects ahead of the clock: ``when`` > ``engine.now``.
    @pytest.mark.parametrize("when", (0, 5000))
    def test_answered_probe_delivers_once_after_the_round_trip(self, net, when):
        vantage = net.vantage("US-EDU-1")
        packet = icmp_probe(vantage.address, first_host(net), 3)
        response = net.probe(packet, now=when)
        assert response is not None
        net.fresh_run_state()
        engine = Engine()
        calls = []
        net.exchange(
            engine,
            packet,
            when,
            lambda data, sent_at: calls.append((engine.now, data, sent_at)),
        )
        assert engine.now == 0 and engine.pending == 1 and calls == []
        engine.run()
        assert calls == [(when + response.delay_us, response.data, when)]


class TestFlowPathChoice:
    """``probe`` walks ``path_for(vantage, dst, flow_variant(header,
    payload))`` — the packet's own flow picks the ECMP variant."""

    @staticmethod
    def flows(net):
        """MDA flow ids x the three protocols, toward a host, toward the
        gateway interface sharing that host's /64, and toward a second /64."""
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
            encode_probe(
                vantage.address, target, ttl, 0, protocol=protocol, flow_id=flow_id
            )
            for target in targets
            for protocol in ("icmp6", "udp", "tcp")
            for flow_id in range(8)
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
        for packet in packets:
            del asked[:]
            net.probe(packet, now=0)
            header, payload = ipv6.split_packet(packet)
            assert asked == [(vantage, header.dst, flow_variant(header, payload))]
            picked.add(id(path_for(*asked[0])))
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
        with pytest.raises(ValueError, match="not a configured vantage"):
            net.probe(packet, now=0)
        assert net._path_cache == paths


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
            header, payload = ipv6.split_packet(deep)
            variant = flow_variant(header, payload)
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
    echo = icmpv6.echo_request(7, 1, b"probe")
    header = IPv6Header(src, dst, 0, PROTO_ICMPV6, hop_limit=5)
    return flow_variant(header, echo.pack(src, dst))


@pytest.fixture(scope="module")
def lossless_net():
    """A world that never drops or rate-limits a response."""
    return Internet(
        config=decoupled_dynamics(
            InternetConfig(n_edge=12, cpe_customers_per_isp=20, seed=7)
        )
    )


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
        net = lossless_net
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
                header, _ = ipv6.split_packet(invoking)
                response = net._icmp_error(
                    (router, iface, 500), msg_type, code, word, invoking, header, 0
                )
                assert response.data == ipv6.build_packet(
                    IPv6Header(iface, vantage.address, 0, PROTO_ICMPV6),
                    icmpv6.ICMPv6Message(msg_type, code, word, quotation).pack(
                        iface, vantage.address
                    ),
                )
