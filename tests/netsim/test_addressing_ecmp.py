"""Unit tests for address assignment, ECMP hashing, and router state."""

import ast
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.addrs import IIDClass, classify_iid, eui64_oui, make_eui64_iid
from repro.addrs.prefix import Prefix
from repro.netsim import InternetConfig
from repro.netsim.addressing import (
    CPE_OUIS,
    draw_between,
    interface_address,
    interface_iid,
)
from repro.netsim.build import _Builder
from repro.netsim.ecmp import VARIANTS, flow_variant
from repro.netsim.internet import RouterState
from repro.netsim.topology import AddressPlan, Router, RouterRole
from repro.packet import icmpv6, ipv6, udp
from repro.packet.ipv6 import IPv6Header, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP


class TestInterfaceAddressing:
    def test_lowbyte_plan(self):
        rng = random.Random(1)
        assert interface_iid(AddressPlan.LOWBYTE, 0, rng) == 1
        assert interface_iid(AddressPlan.LOWBYTE, 1, rng) == 2

    def test_random_plan_nonzero(self):
        rng = random.Random(1)
        for _ in range(50):
            assert interface_iid(AddressPlan.RANDOM, 0, rng) != 0

    def test_eui64_plan_numbers_no_link(self):
        """EUI-64 IIDs are drawn only on leaf LANs, by the leaf kernel."""
        with pytest.raises(ValueError, match="no infrastructure numbering"):
            interface_iid(AddressPlan.EUI64, 0, random.Random(1))

    def test_interface_address_inside_link(self):
        rng = random.Random(2)
        link = Prefix.parse("2001:db8:0:5::/64")
        addr = interface_address(link, AddressPlan.RANDOM, 0, rng)
        assert link.contains(addr)


def build_lan(seed, hosts, privacy, eui64, www, residential=False, rng=None):
    """One LAN of ``hosts`` hosts, built by the world build's leaf kernel
    in an AS of its own (drawing from ``rng`` if given)."""
    config = replace(
        InternetConfig(seed=seed),
        hosts_per_leaf=(hosts, hosts),
        privacy_fraction=privacy,
        eui64_host_fraction=eui64,
    )
    builder = _Builder(config)
    builder.rng = rng or builder.rng
    asys = builder.make_as("LAN", 3, AddressPlan.EUI64 if residential else AddressPlan.LOWBYTE)
    builder.add_leaves(asys, asys.prefixes[0], [1], RouterRole.GATEWAY, www)
    (subnet,) = asys.plan.leaves
    return subnet


class TestHostAddressing:
    def test_privacy_iid_never_eui64(self):
        for iid in build_lan(4, 300, 1.0, 0.0, 0.0).host_iids:
            assert classify_iid(iid) is not IIDClass.EUI64
            assert iid != 0

    @pytest.mark.parametrize(
        "drawn, iid",
        [
            # The ff:fe marker position of a 64-bit draw is cleared ...
            (0x123456FFFE789ABC, 0x123456FFFE789ABC ^ (1 << 30)),
            # ... and an all-zero draw, never an address, is ::1.
            (0, 1),
        ],
    )
    def test_privacy_iid_rule(self, drawn, iid):
        class Draws(random.Random):
            def getrandbits(self, bits):
                return drawn if bits == 64 else super().getrandbits(bits)

        assert build_lan(4, 1, 1.0, 0.0, 0.0, rng=Draws(4)).host_iids == [iid]

    def test_eui64_host(self):
        iids = build_lan(5, 50, 0.0, 1.0, 0.0).host_iids
        assert {classify_iid(iid) for iid in iids} == {IIDClass.EUI64}
        assert {eui64_oui(iid) for iid in iids} == {CPE_OUIS[1]}

    def test_lowbyte_server_small(self):
        for iid in build_lan(6, 50, 0.0, 0.0, 0.0).host_iids:
            assert 1 <= iid <= 0x200

    def test_pick_host_kind_mix(self):
        subnet = build_lan(7, 2000, 0.5, 0.3, 1.0)
        hosts = subnet.host_iids
        classes = [classify_iid(iid) for iid in hosts]
        assert 0.45 < classes.count(IIDClass.RANDOMIZED) / len(hosts) < 0.55
        assert 0.25 < classes.count(IIDClass.EUI64) / len(hosts) < 0.35
        # The privacy-addressed hosts of a WWW LAN are its CDN-visible clients.
        assert subnet.www_client_iids == [
            iid for iid, cls in zip(hosts, classes) if cls is IIDClass.RANDOMIZED
        ]
        quiet = build_lan(7, 2000, 0.5, 0.3, 0.0)
        assert (quiet.host_iids, quiet.www_client_iids) == (hosts, [])

    def test_residential_lans_are_mostly_privacy_addressed(self):
        """A CPE LAN's mix ignores ``privacy_fraction``: 85 % privacy."""
        hosts = build_lan(8, 2000, 0.0, 0.1, 0.0, residential=True).host_iids
        randomized = sum(classify_iid(iid) is IIDClass.RANDOMIZED for iid in hosts)
        assert 0.82 < randomized / len(hosts) < 0.88


# The scalar spellings the world build drew through before PR 23 — a MAC
# tuple per EUI-64 IID, a kind enum then an ``if`` chain per host,
# ``randint`` per bounded draw, a checked prefix per leaf.  Kept here as
# the oracle: the closed forms in ``netsim.addressing`` and the leaf
# kernel ``_Builder.add_leaves`` must return the same values *and* leave
# the generator in the same state (as many draws, in the same order).
def random_mac(rng, oui):
    return (
        (oui >> 16) & 0xFF,
        (oui >> 8) & 0xFF,
        oui & 0xFF,
        rng.getrandbits(8),
        rng.getrandbits(8),
        rng.getrandbits(8),
    )


SLAAC_PRIVACY, EUI64, LOWBYTE_SERVER = "slaac-privacy", "eui64", "lowbyte-server"


def pick_host_kind(rng, privacy_fraction, eui64_fraction):
    roll = rng.random()
    if roll < privacy_fraction:
        return SLAAC_PRIVACY
    if roll < privacy_fraction + eui64_fraction:
        return EUI64
    return LOWBYTE_SERVER


def scalar_host_iid(kind, rng, oui=0):
    if kind == SLAAC_PRIVACY:
        iid = rng.getrandbits(64)
        if (iid >> 24) & 0xFFFF == 0xFFFE:
            iid ^= 1 << 30
        return iid or 1
    if kind == EUI64:
        return make_eui64_iid(random_mac(rng, oui or CPE_OUIS[1]))
    return rng.randint(1, 0x200)


def scalar_leaves(builder, asys, parent, slots, role, www_fraction):
    """The per-leaf loop over ``slots``, one draw at a time: per leaf
    the gateway, its host count, its IID, the aliased and www flags, each
    host's technique and IID."""
    rng, config = builder.rng, builder.config
    residential = asys.address_plan is AddressPlan.EUI64
    privacy = 0.85 if residential else config.privacy_fraction
    leaves = []
    for slot in slots:
        gateway = builder.new_router(
            asys.asn, role, config.edge_limit_rate, config.edge_limit_burst
        )
        count = rng.randint(*config.hosts_per_leaf)
        prefix = parent.nth_subnet(64, slot)
        if residential:
            gateway_iid = make_eui64_iid(random_mac(rng, asys.cpe_oui or CPE_OUIS[0]))
        else:
            gateway_iid = 1
        aliased = not residential and rng.random() < config.aliased_subnet_fraction
        www = rng.random() < www_fraction
        hosts, clients = [], []
        for _ in range(count):
            kind = pick_host_kind(rng, privacy, config.eui64_host_fraction)
            iid = scalar_host_iid(kind, rng, asys.cpe_oui or CPE_OUIS[1])
            hosts.append(iid)
            if www and kind == SLAAC_PRIVACY:
                clients.append(iid)
        leaves.append(
            (prefix, gateway.router_id, prefix.base | gateway_iid, hosts, clients, aliased)
        )
    return leaves


SEEDS = st.integers(0, 2**32)
FRACTIONS = st.floats(0.0, 1.0)


class TestDrawsAgainstTheScalarOracle:
    @given(
        SEEDS,
        st.integers(0, 2**20),
        # any width, and the edges of the rejection loop: width 1 and
        # one below / at / above a power of two
        st.integers(0, 2**20)
        | st.sampled_from([0] + [(1 << k) + d for k in range(1, 21) for d in (-2, -1, 0)]),
    )
    def test_draw_between_is_randint(self, seed, low, span):
        high = min(low + span, 2**20)
        drawn, oracle = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert draw_between(drawn, low, high) == oracle.randint(low, high)
        assert drawn.getstate() == oracle.getstate()

    @settings(max_examples=200, deadline=None)
    @given(
        SEEDS,
        st.booleans(),
        st.sampled_from((None,) + CPE_OUIS),
        st.lists(st.integers(0, 2**16 - 1), max_size=4, unique=True),
        st.tuples(st.integers(0, 4), st.integers(0, 5)),
        st.tuples(FRACTIONS, FRACTIONS, FRACTIONS, FRACTIONS, FRACTIONS),
    )
    def test_add_leaves_is_the_per_leaf_loop(
        self, seed, residential, oui, slots, hosts, fractions
    ):
        privacy, eui64, aliased, silent, www = fractions
        config = replace(
            InternetConfig(seed=seed),
            hosts_per_leaf=(hosts[0], sum(hosts)),
            privacy_fraction=privacy,
            eui64_host_fraction=eui64,
            aliased_subnet_fraction=aliased,
            silent_router_fraction=silent,
        )
        plan = AddressPlan.EUI64 if residential else AddressPlan.RANDOM
        role = RouterRole.CPE if residential else RouterRole.GATEWAY
        built, oracle = _Builder(config), _Builder(config)
        asys, oracle_as = (
            builder.make_as("LAN", 3, plan, prefix_length=48) for builder in (built, oracle)
        )
        asys.cpe_oui = oracle_as.cpe_oui = oui
        # A /48: every slot is one of its /64s.
        parent = asys.prefixes[0]
        built.add_leaves(asys, parent, slots, role, www)
        expected = scalar_leaves(oracle, oracle_as, parent, slots, role, www)
        leaves = asys.plan.leaves
        assert [
            (
                leaf.prefix, leaf.gateway.router_id, leaf.gateway_addr,
                leaf.host_iids, leaf.www_client_iids, leaf.aliased,
            )
            for leaf in leaves
        ] == expected
        assert built.rng.getstate() == oracle.rng.getstate()
        # Registered where the rest of the build and the probe path look.
        for leaf in leaves:
            assert built.out.truth.subnets[leaf.prefix.base] is leaf
            assert built.out.truth.router_addresses[leaf.gateway_addr] is leaf.gateway
            assert leaf.gateway.interfaces == [leaf.gateway_addr]
            assert leaf.gateway.role is role
        assert asys.routers == [leaf.gateway for leaf in leaves]


# The ECMP model, per byte — the oracle ``flow_variant``'s closed form
# must equal: FNV-1a-64 over the flow key, low bits pick the variant.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
KEY_LENGTHS = (36, 40)
HASHED_TRANSPORT = (PROTO_TCP, PROTO_UDP, PROTO_ICMPV6)


def fnv_step(value, byte):
    return ((value ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF


def fnv1a(data):
    value = FNV_OFFSET
    for byte in data:
        value = fnv_step(value, byte)
    return value


def expected_key(header, payload):
    """Source, destination, next header, 3-byte flow label, then the
    first four transport bytes for TCP/UDP/ICMPv6 only."""
    key = (
        header.src.to_bytes(16, "big")
        + header.dst.to_bytes(16, "big")
        + bytes([header.next_header])
        + header.flow_label.to_bytes(3, "big")
    )
    if header.next_header in HASHED_TRANSPORT and len(payload) >= 4:
        key += payload[:4]
    assert len(key) in KEY_LENGTHS
    return key


def oracle_variant(header, payload):
    return fnv1a(expected_key(header, payload)) % VARIANTS


def packet_variant(header, payload):
    """``flow_variant`` of the packet ``header`` ‖ ``payload``, given the
    header fields the simulator reads off it."""
    packet = ipv6.build_packet(header, payload)
    return flow_variant(header.src, header.dst, header.next_header, header.flow_label, packet)


class TestFlowHashing:
    def _icmp_packet(self, src, dst, ident=1, seq=1, payload=b"x"):
        echo = icmpv6.echo_request(ident, seq, payload)
        segment = echo.pack(src, dst)
        header = IPv6Header(src, dst, len(segment), PROTO_ICMPV6)
        return header, segment

    def _feeds_variant(self, packets):
        """The closed form follows the oracle over ``packets`` and does
        not put them all on one variant."""
        variants = [packet_variant(header, payload) for header, payload in packets]
        assert variants == [oracle_variant(header, payload) for header, payload in packets]
        return len(set(variants)) > 1

    def test_derivation_premises(self):
        """Each line of ``flow_variant``'s docstring derivation rests on
        one of these; a changed constant fails here first."""
        assert VARIANTS == 4  # the variant is the hash's low two bits
        assert FNV_PRIME % 4 == 3  # a step negates (h ^ b) modulo 4
        assert FNV_OFFSET % 4 == 1  # h0 starts at 1, h1 at 0
        assert all(length % 2 == 0 for length in KEY_LENGTHS)  # h0's constant cancels in h1

    def test_fnv_step_is_linear_in_its_low_two_bits(self):
        """Exhaustively: h0' = h0 ^ b0 and h1' = h1 ^ b1 ^ h0', whatever
        the upper 62 bits of the state are."""
        for upper in (0, FNV_OFFSET >> 2, (1 << 62) - 1):
            for state in range(4):
                for byte in range(256):
                    stepped = fnv_step(upper << 2 | state, byte)
                    low = (state ^ byte) & 1
                    high = ((state ^ byte) >> 1 & 1) ^ low
                    assert stepped % 4 == high << 1 | low

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.integers(min_value=0, max_value=0xFFFFF),
        st.binary(max_size=8),
    )
    def test_key_bytes(self, src, dst, flow_label, payload):
        """The closed form is FNV-1a of the documented key, for every
        next header over any addresses, flow label and transport."""
        for next_header in range(256):
            header = IPv6Header(
                src, dst, len(payload), next_header, flow_label=flow_label
            )
            assert packet_variant(header, payload) == oracle_variant(header, payload)

    def test_same_packet_same_variant(self):
        header, payload = self._icmp_packet(1, 2)
        assert packet_variant(header, payload) == packet_variant(header, payload)

    def test_variant_range(self):
        for dst in range(1, 50):
            header, payload = self._icmp_packet(1, dst)
            assert 0 <= packet_variant(header, payload) < VARIANTS

    def test_icmp_checksum_feeds_hash(self):
        """Echo requests differing only in payload (hence checksum) do
        not all hash alike — the phenomenon Yarrp6's fudge neutralizes."""
        assert self._feeds_variant(
            [self._icmp_packet(1, 2, payload=bytes([n])) for n in range(8)]
        )

    def test_udp_ports_feed_hash(self):
        src, dst = 1, 2
        segments = [udp.build_datagram(src, dst, 1000 + n, 80, b"x") for n in range(8)]
        header = IPv6Header(src, dst, len(segments[0]), PROTO_UDP)
        assert self._feeds_variant([(header, segment) for segment in segments])

    def test_destination_feeds_hash(self):
        """Under one transport: a valid echo's checksum moves against
        its destination, and over these neighbours the two cancel."""
        _, segment = self._icmp_packet(1, 100)
        assert self._feeds_variant(
            [
                (IPv6Header(1, dst, len(segment), PROTO_ICMPV6), segment)
                for dst in range(100, 108)
            ]
        )

    def test_unhashed_transport_does_not_feed_hash(self):
        """Next header 59 (and a transport cut below four bytes) leaves
        the key at its 36-byte base."""
        header = IPv6Header(1, 2, 8, 59)
        assert not self._feeds_variant([(header, bytes([n]) * 8) for n in range(8)])
        header = IPv6Header(1, 2, 3, PROTO_UDP)
        assert not self._feeds_variant([(header, bytes([n]) * 3) for n in range(8)])


def test_ecmp_has_no_loop_and_src_stays_on_python_39():
    """The two contracts the closed form leans on: the per-byte loop
    cannot quietly return to ``netsim/ecmp.py``, and nothing under
    ``src/repro`` reads ``int.bit_count`` (3.10+; pyproject declares and
    CI's matrix runs 3.9)."""
    package = pathlib.Path(repro.__file__).parent
    loops = (
        ast.For,
        ast.While,
        ast.AsyncFor,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )
    ecmp_tree = ast.parse((package / "netsim" / "ecmp.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(ecmp_tree) if isinstance(node, loops)]
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bit_count"
        ]
        assert not readers, "%s reads bit_count at lines %s" % (path, readers)


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
