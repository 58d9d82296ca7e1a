"""Tests for Yarrp6 stateless state encoding (Figure 4)."""

import ast
import hashlib
import io
import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import parse
from repro.addrs.address import MAX_ADDRESS
from repro.netsim import Internet, InternetConfig
from repro.packet import icmpv6, ipv6, tcp, udp
from repro.packet.checksum import address_checksum, verify_transport_checksum
from repro.prober import PROBERS, Yarrp6, Yarrp6Config, run_campaign
from repro.prober import encoding as encoding_module
from repro.prober.encoding import (
    DEST_PORT,
    MAGIC,
    PAYLOAD_HEAD,
    PAYLOAD_LENGTH,
    DecodedProbe,
    DecodeError,
    decode_quotation,
    encode_probe,
    rtt_from,
)
from repro.prober.output import write_records
from repro.prober.records import ResponseProcessor
from tests.test_fuzz import _FLIPS, _PROBES, _mangled

SRC = parse("2001:db8::100")
addresses = st.integers(min_value=1, max_value=MAX_ADDRESS)
ttls = st.integers(min_value=1, max_value=255)
times = st.integers(min_value=0, max_value=0xFFFFFFFF)
protocols = st.sampled_from(["icmp6", "udp", "tcp"])


class TestEncode:
    def test_icmp_probe_structure(self):
        packet = encode_probe(SRC, parse("2a00::1"), ttl=5, elapsed=123)
        header, payload = ipv6.split_packet(packet)
        assert header.hop_limit == 5
        assert header.next_header == ipv6.PROTO_ICMPV6
        message = icmpv6.ICMPv6Message.unpack(payload)
        assert message.msg_type == icmpv6.TYPE_ECHO_REQUEST
        assert message.identifier == address_checksum(parse("2a00::1"))
        assert message.sequence == DEST_PORT
        assert len(message.body) == PAYLOAD_LENGTH

    def test_udp_probe_structure(self):
        target = parse("2a00::1")
        packet = encode_probe(SRC, target, 3, 0, protocol="udp")
        header, payload = ipv6.split_packet(packet)
        assert header.next_header == ipv6.PROTO_UDP
        udp_header, body = udp.split_datagram(payload)
        assert udp_header.src_port == address_checksum(target)
        assert udp_header.dst_port == DEST_PORT
        assert len(body) == PAYLOAD_LENGTH

    def test_tcp_probe_structure(self):
        target = parse("2a00::1")
        packet = encode_probe(SRC, target, 3, 0, protocol="tcp")
        header, payload = ipv6.split_packet(packet)
        assert header.next_header == ipv6.PROTO_TCP
        tcp_header, body = tcp.split_segment(payload)
        assert tcp_header.syn
        assert tcp_header.src_port == address_checksum(target)
        assert len(body) == PAYLOAD_LENGTH

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            encode_probe(SRC, 1, 1, 0, protocol="sctp")

    @given(addresses, ttls, times, protocols)
    def test_checksum_valid(self, target, ttl, elapsed, protocol):
        """Despite the constant-checksum trick, every probe carries a
        *valid* transport checksum."""
        packet = encode_probe(SRC, target, ttl, elapsed, protocol=protocol)
        header, payload = ipv6.split_packet(packet)
        assert verify_transport_checksum(SRC, target, header.next_header, payload)

    @given(addresses, st.lists(st.tuples(ttls, times), min_size=2, max_size=6), protocols)
    def test_headers_constant_per_target(self, target, variations, protocol):
        """The Paris property: for one target, every probe's transport
        header — including the checksum — is byte-identical; only the
        payload and hop limit vary."""
        packets = [
            encode_probe(SRC, target, ttl, elapsed, protocol=protocol)
            for ttl, elapsed in variations
        ]
        transport_len = {"icmp6": 8, "udp": 8, "tcp": 20}[protocol]
        headers = {
            ipv6.split_packet(packet)[1][:transport_len] for packet in packets
        }
        assert len(headers) == 1


class TestDecode:
    @given(addresses, ttls, times, protocols, st.integers(min_value=0, max_value=255))
    def test_round_trip(self, target, ttl, elapsed, protocol, instance):
        packet = encode_probe(SRC, target, ttl, elapsed, instance, protocol)
        decoded = decode_quotation(packet)
        assert decoded.target == target
        assert decoded.ttl == ttl
        assert decoded.elapsed == elapsed
        assert decoded.instance == instance
        assert not decoded.target_modified

    def test_instance_mismatch(self):
        packet = encode_probe(SRC, 99, 1, 0, instance=7)
        with pytest.raises(DecodeError):
            decode_quotation(packet, instance=8)
        assert decode_quotation(packet, instance=7).instance == 7

    def test_bad_magic(self):
        packet = bytearray(encode_probe(SRC, 99, 1, 0))
        packet[48] ^= 0xFF  # first magic byte (40 IPv6 + 8 ICMP header)
        with pytest.raises(DecodeError):
            decode_quotation(bytes(packet))

    def test_truncated_quotation(self):
        packet = encode_probe(SRC, 99, 1, 0)
        with pytest.raises(DecodeError):
            decode_quotation(packet[:48])  # header + 8B only

    def test_truncation_boundary(self):
        """Quotations missing only the fudge bytes still decode."""
        packet = encode_probe(SRC, 99, 4, 1234)
        decoded = decode_quotation(packet[:-2])
        assert decoded.ttl == 4

    def test_rewritten_target_detected(self):
        """A middlebox rewriting the quoted destination trips the address
        checksum carried in the source port."""
        packet = bytearray(encode_probe(SRC, parse("2a00::1"), 1, 0))
        packet[38] ^= 0x55  # low bytes of the destination address
        decoded = decode_quotation(bytes(packet))
        assert decoded.target_modified

    def test_non_probe_quotation(self):
        stray = ipv6.build_packet(
            ipv6.IPv6Header(SRC, 1, 0, ipv6.PROTO_ICMPV6),
            icmpv6.echo_request(1, 1, b"not-yarrp\x00\x00\x00").pack(SRC, 1),
        )
        with pytest.raises(DecodeError):
            decode_quotation(stray)

    def test_garbage(self):
        with pytest.raises(DecodeError):
            decode_quotation(b"\x00" * 30)


def reference_decode(quotation, instance=None):
    """``decode_quotation`` as it read through PR 20 — ``split_packet``
    into the 7-field header value and a copy of the transport — kept as
    the oracle for the version that reads fields at their offsets."""
    transport_lengths = {ipv6.PROTO_ICMPV6: 8, ipv6.PROTO_UDP: 8, ipv6.PROTO_TCP: 20}
    sport_offsets = {ipv6.PROTO_ICMPV6: 4, ipv6.PROTO_UDP: 0, ipv6.PROTO_TCP: 0}
    try:
        header, rest = ipv6.split_packet(quotation)
    except ipv6.PacketError as error:
        raise DecodeError("unparseable quotation: %s" % error) from None
    transport_length = transport_lengths.get(header.next_header)
    if transport_length is None:
        raise DecodeError("unexpected protocol %d in quotation" % header.next_header)
    if len(rest) < transport_length + PAYLOAD_LENGTH - 2:
        raise DecodeError(
            "quotation truncated to %d bytes of transport" % len(rest)
        )
    try:
        magic, probe_instance, ttl, elapsed = PAYLOAD_HEAD.unpack_from(
            rest, transport_length
        )
    except struct.error:
        raise DecodeError("quotation payload too short") from None
    if magic != MAGIC:
        raise DecodeError("bad magic %08x" % magic)
    if instance is not None and probe_instance != instance:
        raise DecodeError(
            "instance mismatch: probe %d, ours %d" % (probe_instance, instance)
        )
    sport_at = sport_offsets[header.next_header]
    sport = (rest[sport_at] << 8) | rest[sport_at + 1]
    return DecodedProbe(
        target=header.dst,
        ttl=ttl,
        elapsed=elapsed,
        instance=probe_instance,
        protocol=header.next_header,
        target_modified=sport != address_checksum(header.dst),
    )


def _outcome(decode, quotation, instance):
    """Every field of the decoded probe, or the error's exact text."""
    try:
        decoded = decode(quotation, instance)
    except DecodeError as error:
        return str(error)
    return tuple(getattr(decoded, name) for name in DecodedProbe.__slots__)


def _mangled_responses():
    """One fixed stream of what a vantage might receive: every eighth
    and the six longest truncations of 24 bit-flipped quotations inside
    real ICMPv6 errors, each also flipped on the wire, among echo
    replies, TCP and UDP."""
    rng = random.Random(2018)
    vantage, router = SRC, parse("2001:db8:ffff::1")
    for n in range(24):
        probe = encode_probe(
            vantage,
            rng.getrandbits(128),
            ttl=1 + n,
            elapsed=rng.getrandbits(32),
            instance=1 if n % 6 else 2,
            protocol=("icmp6", "udp", "tcp")[n % 3],
        )
        flips = [(rng.randrange(1 << 16), rng.randrange(8)) for _ in range(n % 5)]
        cuts = list(_mangled(probe, flips))
        for quotation in cuts[n % 8 :: 8] + cuts[-6:]:
            response = icmpv6.error_packet(
                router + n, vantage, icmpv6.TYPE_TIME_EXCEEDED, 0, 0, quotation
            )
            yield response
            flipped = bytearray(response)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            yield bytes(flipped)
        yield ipv6.build_packet(
            ipv6.IPv6Header(router + n, vantage, 0, ipv6.PROTO_ICMPV6),
            icmpv6.ICMPv6Message(
                icmpv6.TYPE_ECHO_REPLY, 0, 80, probe[-PAYLOAD_LENGTH:]
            ).pack(
                router + n, vantage
            ),
        )
        yield ipv6.build_packet(
            ipv6.IPv6Header(router + n, vantage, 0, (6, 17)[n % 2]), probe[40:]
        )


class TestParseTrim:
    """``decode_quotation`` no longer builds the header value or copies
    the transport; nothing observable may have moved."""

    @settings(max_examples=60, deadline=None)
    @given(_PROBES, _FLIPS)
    def test_decode_equals_the_value_type_path(self, probe, flips):
        own = probe[4 - PAYLOAD_LENGTH]  # the instance byte
        for quotation in _mangled(probe, flips):
            for instance in (None, own, own ^ 1):
                assert _outcome(decode_quotation, quotation, instance) == _outcome(
                    reference_decode, quotation, instance
                )

    def test_processor_over_a_mangled_stream_is_pinned(self):
        """The counters and record bytes the PR-20 tree produced."""
        processor = ResponseProcessor(instance=1)
        for sent, data in enumerate(_mangled_responses(), 1):
            processor.process(data, now=5_000_000 + sent, sent_so_far=sent)
        rows = io.StringIO()
        write_records(rows, processor.records)
        assert (
            processor.received,
            processor.decode_failures,
            processor.foreign,
            processor.tcp_responses,
            processor.mangled_targets,
            len(processor.records),
            hashlib.sha256(rows.getvalue().encode("utf-8")).hexdigest(),
        ) == PINNED_STREAM


#: received, decode_failures, foreign, tcp_responses, mangled_targets,
#: records, sha256 of the rows — read off the PR-20 tree.
PINNED_STREAM = (
    726,
    568,
    23,
    12,
    41,
    123,
    "6ed13200ca50b561c145099a30291d1cb0e1914c06d7f8e2ed8e4b420ad1e745",
)


class TestOneCraftingPath:
    """Every campaign prober crafts through its ``ProbeTemplate``;
    ``encode_probe`` is the definition those bytes are held to, and is
    off the per-probe path."""

    #: Any 128-bit target, any hop limit, and send times past the 32-bit
    #: ``elapsed`` wrap.
    emissions = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_ADDRESS),
            ttls,
            st.integers(min_value=0, max_value=2**40),
        ),
        min_size=1,
        max_size=4,
    )

    @pytest.mark.parametrize("protocol", ["icmp6", "udp", "tcp"])
    @pytest.mark.parametrize("kind", list(PROBERS))
    @settings(max_examples=30, deadline=None)
    @given(emissions=emissions, instance=st.integers(min_value=0, max_value=255))
    def test_emit_is_the_reference_encoder(self, kind, protocol, emissions, instance):
        cls = PROBERS[kind]
        prober = cls(SRC, [1], cls.Config(instance=instance, protocol=protocol))
        for sent, (target, ttl, now) in enumerate(emissions, 1):
            assert prober._emit(target, ttl, now) == encode_probe(
                SRC, target, ttl, now & 0xFFFFFFFF, instance, protocol
            )
            assert prober.sent == sent

    @pytest.mark.parametrize("protocol", ["icmp6", "udp", "tcp"])
    @settings(max_examples=30, deadline=None)
    @given(strays=emissions, start=st.integers(min_value=0, max_value=2**40))
    def test_the_shared_buffer_carries_nothing_between_calls(self, protocol, strays, start):
        """A block crafted after per-event emissions, and per-event
        emissions after a block, through the one buffer."""
        targets = [parse("2a00::1") + 7919 * index for index in range(4)]
        prober = Yarrp6(SRC, targets, Yarrp6Config(max_ttl=3, instance=7, protocol=protocol))
        walk = [(targets[index], ttl) for index, ttl in prober.schedule]

        def reference(position, now):
            target, ttl = walk[position]
            return encode_probe(SRC, target, ttl, now & 0xFFFFFFFF, 7, protocol)

        def dirty():
            for stray in strays:
                prober._emit(*stray)

        def pull(times):
            emitted = []
            prober.next_probes(times, lambda packet, now: emitted.append((now, packet)), None)
            return emitted

        dirty()
        times = [start, start + 3, start + 2**32]
        assert pull(times) == [
            (now, reference(position, now)) for position, now in enumerate(times)
        ]
        assert prober.next_probe(start + 9) == reference(3, start + 9)
        dirty()
        assert pull([start]) == [(start, reference(4, start))]

    @pytest.mark.parametrize(
        "kind, options",
        [("yarrp6", {"fill": True, "max_ttl": 3}), ("sequential", {}), ("doubletree", {})],
    )
    def test_a_campaign_renders_the_scaffold_and_nothing_else(self, kind, options, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return encode_probe(*args, **kwargs)

        monkeypatch.setattr(encoding_module, "encode_probe", counted)
        config = InternetConfig(
            seed=3, n_edge=6, n_tier2=3, n_cpe_isps=1, cpe_customers_per_isp=12
        )
        internet = Internet.from_config(config)
        targets = [subnet.prefix.base | 1 for subnet in internet.truth.subnets.values()]
        result = run_campaign(
            internet, "US-EDU-1", targets[:40], kind, 2000.0, PROBERS[kind].Config(**options)
        )
        assert result.sent > 100 and result.records
        assert len(calls) <= 1

    @staticmethod
    def names_in(module):
        """Every identifier, attribute and imported name in a prober module."""
        path = os.path.join(os.path.dirname(encoding_module.__file__), module + ".py")
        with open(path, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        return named

    @pytest.mark.parametrize("module", ["base", "yarrp6", "traceroute", "doubletree"])
    def test_no_campaign_prober_names_the_scalar_encoder(self, module):
        assert "encode_probe" not in self.names_in(module)

    def test_the_template_is_the_base_classes(self):
        """Built once, when the prober is; Yarrp6 builds none of its own."""
        assert "ProbeTemplate" not in self.names_in("yarrp6")
        assert "ProbeTemplate" in self.names_in("base")
        prober = Yarrp6(SRC, [parse("2a00::1")], Yarrp6Config(protocol="udp"))
        assert prober._template.protocol == "udp"
        assert isinstance(prober._template_buffer, bytearray)


class TestGoldenVectors:
    """Frozen (ttl, elapsed, instance, protocol) -> 12-byte payload vectors.

    The payload layout (magic | instance | ttl | elapsed | checksum fudge)
    is the wire contract every decoder — including a real yarrp parsing a
    quotation — depends on.  These literals pin it: if any of them change,
    the encoding changed, and old capture files stop decoding.  Vectors
    use SRC=2001:db8::100, target=2a00::1; the fudge bytes depend on both.
    """

    # (ttl, elapsed, instance, protocol, payload-hex)
    VECTORS = [
        (1, 0, 0, "icmp6", "795036000001000000006046"),
        (5, 123, 0, "icmp6", "7950360000050000007b5fc7"),
        (16, 1_000_000, 7, "icmp6", "795036000710000f424016e8"),
        (32, 2**31, 128, "icmp6", "795036008020800000006026"),
        (255, 0xFFFFFFFF, 255, "icmp6", "79503600ffffffffffff6047"),
        (64, 42, 1, "icmp6", "7950360001400000002a5edd"),
        (8, 999_999_999, 200, "icmp6", "79503600c8083b9ac9ff92a4"),
        (3, 77, 9, "udp", "7950360009030000004dd70c"),
        (12, 0xDEADBEEF, 255, "udp", "79503600ff0cdeadbeef43b2"),
        (9, 31337, 42, "tcp", "795036002a0900007a69ebfa"),
    ]
    # Transport payload offset: 40B IPv6 header + transport header.
    OFFSETS = {"icmp6": 48, "udp": 48, "tcp": 60}

    @pytest.mark.parametrize("ttl,elapsed,instance,protocol,expected", VECTORS)
    def test_payload_bytes_frozen(self, ttl, elapsed, instance, protocol, expected):
        packet = encode_probe(
            SRC, parse("2a00::1"), ttl, elapsed, instance, protocol
        )
        offset = self.OFFSETS[protocol]
        payload = packet[offset : offset + PAYLOAD_LENGTH]
        assert payload.hex() == expected

    @pytest.mark.parametrize("ttl,elapsed,instance,protocol,expected", VECTORS)
    def test_golden_payloads_decode(self, ttl, elapsed, instance, protocol, expected):
        """The frozen vectors round-trip through the decoder, so the
        literals themselves are self-consistent."""
        packet = encode_probe(
            SRC, parse("2a00::1"), ttl, elapsed, instance, protocol
        )
        decoded = decode_quotation(packet, instance=instance)
        assert (decoded.ttl, decoded.elapsed, decoded.instance) == (
            ttl,
            elapsed,
            instance,
        )

    def test_magic_prefix_constant(self):
        assert MAGIC == 0x79503600
        for *_rest, payload_hex in self.VECTORS:
            assert payload_hex.startswith("79503600")


class TestRtt:
    def test_simple(self):
        assert rtt_from(1000, 3500) == 2500

    def test_wraparound(self):
        assert rtt_from(0xFFFFFF00, 0x100000100) == 0x200
