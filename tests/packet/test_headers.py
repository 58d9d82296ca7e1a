"""Round-trip and validation tests for IPv6/ICMPv6/TCP/UDP headers."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import MAX_ADDRESS
from repro.packet import icmpv6, ipv6, tcp, udp
from repro.packet.ipv6 import IPv6Header, PacketError

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)
ports = st.integers(min_value=0, max_value=0xFFFF)
payloads = st.binary(max_size=64)


def reference_pack(header: IPv6Header) -> bytes:
    """The field-by-field serialization ``IPv6Header.pack`` used to be."""
    first_word = (6 << 28) | (header.traffic_class << 20) | header.flow_label
    return (
        struct.pack(
            "!IHBB",
            first_word,
            header.payload_length,
            header.next_header,
            header.hop_limit,
        )
        + header.src.to_bytes(16, "big")
        + header.dst.to_bytes(16, "big")
    )


class TestIPv6Header:
    def test_pack_length(self):
        header = IPv6Header(src=1, dst=2, payload_length=0, next_header=58)
        assert len(header.pack()) == ipv6.HEADER_LENGTH

    def test_round_trip(self):
        header = IPv6Header(
            src=address.parse("2001:db8::1"),
            dst=address.parse("2001:db8::2"),
            payload_length=20,
            next_header=6,
            hop_limit=3,
            traffic_class=0xA5,
            flow_label=0xBEEF,
        )
        parsed = IPv6Header.unpack(header.pack())
        assert parsed == header

    @given(
        addresses,
        addresses,
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=0xFFFFF),
    )
    def test_round_trip_property(self, src, dst, plen, nh, hlim, tclass, flow):
        header = IPv6Header(src, dst, plen, nh, hlim, tclass, flow)
        assert header.pack() == reference_pack(header)
        assert IPv6Header.unpack(header.pack()) == header

    @pytest.mark.parametrize("tclass", [0, 0xFF])
    @pytest.mark.parametrize("flow", [0, 0xFFFFF])
    @pytest.mark.parametrize("src, dst", [(0, MAX_ADDRESS), (MAX_ADDRESS, 1 << 64)])
    def test_field_extremes(self, tclass, flow, src, dst):
        header = IPv6Header(src, dst, 0xFFFF, 255, 255, tclass, flow)
        assert header.pack() == reference_pack(header)
        assert IPv6Header.unpack(header.pack() + b"trailing") == header

    def test_address_out_of_range(self):
        with pytest.raises(OverflowError):
            IPv6Header(MAX_ADDRESS + 1, 2, 0, 58).pack()
        with pytest.raises(OverflowError):
            IPv6Header(1, -1, 0, 58).pack()
        with pytest.raises(OverflowError):
            icmpv6.error_packet(MAX_ADDRESS + 1, 2, icmpv6.TYPE_TIME_EXCEEDED, 0, 0, b"")

    @pytest.mark.parametrize(
        "field, value",
        [("payload_length", 0x10000), ("hop_limit", 256), ("next_header", -1)],
    )
    def test_field_mutated_out_of_range_is_not_an_address_fault(self, field, value):
        header = IPv6Header(1, 2, 0, 58)
        setattr(header, field, value)
        with pytest.raises(struct.error):
            header.pack()

    def test_version_check(self):
        data = bytearray(IPv6Header(1, 2, 0, 58, traffic_class=0xFF).pack())
        for version in range(16):
            if version == 6:
                continue
            data[0] = (version << 4) | (data[0] & 0x0F)
            with pytest.raises(PacketError):
                IPv6Header.unpack(bytes(data))

    def test_short_rejected(self):
        for length in (0, 11, 39):
            with pytest.raises(PacketError):
                IPv6Header.unpack((b"\x60" + b"\x00" * 39)[:length])

    def test_field_ranges(self):
        with pytest.raises(PacketError):
            IPv6Header(1, 2, -1, 58)
        with pytest.raises(PacketError):
            IPv6Header(1, 2, 0, 58, hop_limit=256)
        with pytest.raises(PacketError):
            IPv6Header(1, 2, 0, 58, flow_label=1 << 20)

    @pytest.mark.parametrize("next_header", [314, 300, 256, -1])
    def test_next_header_out_of_range_is_not_masked(self, next_header):
        """314 used to become 58 (ICMPv6) and 300 a fragment header."""
        message = "next header out of range: %r" % next_header
        with pytest.raises(PacketError, match=message):
            IPv6Header(1, 2, 0, next_header)
        with pytest.raises(PacketError, match=message):
            IPv6Header(1, 2, 0, 58).copy(next_header=next_header)
        assert IPv6Header(1, 2, 0, 255).copy(next_header=0).next_header == 0

    @given(st.binary(min_size=40, max_size=80))
    def test_unpack_equals_the_checked_constructor(self, data):
        """``unpack`` builds the value without ``__init__``: for any
        version-6 bytes it equals the header ``__init__`` builds (without
        raising) from the same ``HEADER.unpack_from``."""
        data = bytes([0x60 | data[0] & 0x0F]) + data[1:]
        word, plen, nh, hlim, src_hi, src_lo, dst_hi, dst_lo = ipv6.HEADER.unpack_from(data)
        built = IPv6Header(
            src_hi << 64 | src_lo,
            dst_hi << 64 | dst_lo,
            plen,
            nh,
            hlim,
            word >> 20 & 0xFF,
            word & 0xFFFFF,
        )
        assert IPv6Header.unpack(data) == built
        assert ipv6.header_fields(data) == ipv6.HEADER.unpack_from(data)

    def test_unpack_error_texts(self):
        """Both rejections come from the one check ``header_fields`` owns."""
        for parse in (IPv6Header.unpack, ipv6.header_fields, ipv6.split_packet):
            with pytest.raises(PacketError, match=r"^short IPv6 header: 39 < 40 bytes$"):
                parse(b"\x60" + b"\x00" * 38)
            with pytest.raises(PacketError, match=r"^not IPv6 \(version 4\)$"):
                parse(b"\x45" + b"\x00" * 39)

    def test_build_packet_fixes_length(self):
        header = IPv6Header(1, 2, 999, 58)
        packet = ipv6.build_packet(header, b"abc")
        parsed, payload = ipv6.split_packet(packet)
        assert parsed.payload_length == 3
        assert payload == b"abc"

    def test_build_packet_keeps_every_other_field(self):
        header = IPv6Header(1, 2, 999, 17, 9, 0xA5, 0xBEEF)
        parsed, _ = ipv6.split_packet(ipv6.build_packet(header, b"abc"))
        assert parsed == header.copy(payload_length=3)
        assert header.payload_length == 999

    def test_build_packet_rejects_oversized_payload(self):
        with pytest.raises(PacketError):
            ipv6.build_packet(IPv6Header(1, 2, 0, 58), b"\x00" * 0x10000)

    def test_copy_overrides(self):
        header = IPv6Header(1, 2, 0, 58, hop_limit=5)
        lowered = header.copy(hop_limit=1)
        assert lowered.hop_limit == 1
        assert lowered.src == header.src
        assert header.hop_limit == 5


class TestICMPv6:
    def test_echo_round_trip(self):
        src, dst = 1, 2
        message = icmpv6.echo_request(0x1234, 7, b"payload")
        packed = message.pack(src, dst)
        parsed = icmpv6.ICMPv6Message.unpack(packed)
        assert parsed.identifier == 0x1234
        assert parsed.sequence == 7
        assert parsed.body == b"payload"
        assert parsed.verify(src, dst)

    def test_corrupted_checksum_fails(self):
        src, dst = 1, 2
        packed = bytearray(icmpv6.echo_request(1, 1, b"x").pack(src, dst))
        packed[-1] ^= 0xFF
        assert not icmpv6.ICMPv6Message.unpack(bytes(packed)).verify(src, dst)

    def test_time_exceeded_quotes_packet(self):
        invoking = b"\x60" + b"\x00" * 60
        error = icmpv6.time_exceeded(invoking)
        assert error.is_time_exceeded
        assert error.quotation == invoking

    def test_time_exceeded_truncates_to_mtu(self):
        invoking = b"\xaa" * 2000
        error = icmpv6.time_exceeded(invoking)
        assert len(error.quotation) == icmpv6.MAX_QUOTATION
        total = 40 + 8 + len(error.quotation)
        assert total <= icmpv6.MINIMUM_MTU

    @given(
        addresses,
        addresses,
        st.sampled_from(
            [
                icmpv6.TYPE_TIME_EXCEEDED,
                icmpv6.TYPE_DEST_UNREACH,
                icmpv6.TYPE_PACKET_TOO_BIG,
            ]
        ),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.binary(max_size=96) | st.binary(min_size=1200, max_size=1300),
    )
    def test_error_packet_matches_layered_build(
        self, src, dst, msg_type, code, word, quotation
    ):
        """The one-pass error packet equals header-over-message-over-
        pseudo-header construction, truncation and odd tails included."""
        layered = ipv6.build_packet(
            IPv6Header(src, dst, 0, ipv6.PROTO_ICMPV6),
            icmpv6.ICMPv6Message(
                msg_type, code, word, quotation[: icmpv6.MAX_QUOTATION]
            ).pack(src, dst),
        )
        packet = icmpv6.error_packet(src, dst, msg_type, code, word, quotation)
        assert packet == layered
        header, segment = ipv6.split_packet(packet)
        assert icmpv6.ICMPv6Message.unpack(segment).verify(src, dst)

    def test_echo_not_error(self):
        # Informational, not an error: type >= 128 (RFC 4443 Section 2.1).
        assert icmpv6.echo_reply(1, 1).msg_type >= 128
        assert icmpv6.echo_reply(1, 1).is_echo_reply

    def test_unreachable_codes_label(self):
        error = icmpv6.ICMPv6Message(
            icmpv6.TYPE_DEST_UNREACH, int(icmpv6.UnreachableCode.PORT_UNREACHABLE)
        )
        assert icmpv6.classify_response(error) == "port unreachable"

    def test_classify_time_exceeded(self):
        assert icmpv6.classify_response(icmpv6.time_exceeded(b"")) == "time exceeded"

    def test_classify_unknown_code(self):
        message = icmpv6.ICMPv6Message(icmpv6.TYPE_DEST_UNREACH, 250)
        assert "code 250" in icmpv6.classify_response(message)

    def test_short_segment_rejected(self):
        with pytest.raises(PacketError):
            icmpv6.ICMPv6Message.unpack(b"\x80\x00")

    @given(ports, ports, payloads)
    def test_echo_word_round_trip(self, ident, seq, payload):
        message = icmpv6.echo_request(ident, seq, payload)
        parsed = icmpv6.ICMPv6Message.unpack(message.pack(0, 0))
        assert (parsed.identifier, parsed.sequence) == (ident, seq)


class TestUDP:
    @given(addresses, addresses, ports, ports, payloads)
    def test_datagram_round_trip(self, src, dst, sport, dport, payload):
        segment = udp.build_datagram(src, dst, sport, dport, payload)
        header, parsed_payload = udp.split_datagram(segment)
        assert header.src_port == sport
        assert header.dst_port == dport
        assert header.length == len(segment)
        assert parsed_payload == payload
        assert udp.verify_datagram(src, dst, segment)

    def test_corruption_detected(self):
        segment = bytearray(udp.build_datagram(1, 2, 1000, 80, b"hello"))
        segment[-1] ^= 0x20
        assert not udp.verify_datagram(1, 2, bytes(segment))

    def test_port_range_checked(self):
        with pytest.raises(PacketError):
            udp.UDPHeader(70000, 80)

    def test_short_rejected(self):
        with pytest.raises(PacketError):
            udp.UDPHeader.unpack(b"\x00" * 7)


class TestTCP:
    @given(addresses, addresses, ports, ports, st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_segment_round_trip(self, src, dst, sport, dport, seq):
        header = tcp.TCPHeader(sport, dport, seq=seq, flags=tcp.FLAG_SYN)
        segment = tcp.build_segment(src, dst, header)
        parsed, payload = tcp.split_segment(segment)
        assert parsed.src_port == sport
        assert parsed.dst_port == dport
        assert parsed.seq == seq
        assert parsed.syn and not parsed.rst
        assert payload == b""
        assert tcp.verify_segment(src, dst, segment)

    def test_flags(self):
        header = tcp.TCPHeader(1, 2, flags=tcp.FLAG_SYN | tcp.FLAG_ACK)
        assert header.syn and header.flags & tcp.FLAG_ACK and not header.rst

    def test_corruption_detected(self):
        segment = bytearray(tcp.build_segment(1, 2, tcp.TCPHeader(1000, 80)))
        segment[4] ^= 0x01  # flip a sequence-number bit
        assert not tcp.verify_segment(1, 2, bytes(segment))

    def test_short_rejected(self):
        with pytest.raises(PacketError):
            tcp.TCPHeader.unpack(b"\x00" * 19)


class TestFullPacketComposition:
    def test_icmp_probe_in_ipv6(self):
        src = address.parse("2001:db8::100")
        dst = address.parse("2001:db8:1::1")
        echo = icmpv6.echo_request(42, 1, b"yarrp6")
        packet = ipv6.build_packet(
            IPv6Header(src, dst, 0, ipv6.PROTO_ICMPV6, hop_limit=4),
            echo.pack(src, dst),
        )
        header, payload = ipv6.split_packet(packet)
        assert header.hop_limit == 4
        message = icmpv6.ICMPv6Message.unpack(payload)
        assert message.identifier == 42
        assert message.verify(src, dst)

    def test_time_exceeded_quotation_recoverable(self):
        """End-to-end: a router quotes the probe; the prober recovers it."""
        src = address.parse("2001:db8::100")
        dst = address.parse("2001:db8:1::1")
        probe = ipv6.build_packet(
            IPv6Header(src, dst, 0, ipv6.PROTO_ICMPV6, hop_limit=1),
            icmpv6.echo_request(7, 9, b"state").pack(src, dst),
        )
        router = address.parse("2001:db8:ffff::1")
        error = icmpv6.time_exceeded(probe)
        reply = ipv6.build_packet(
            IPv6Header(router, src, 0, ipv6.PROTO_ICMPV6),
            error.pack(router, src),
        )
        outer_header, outer_payload = ipv6.split_packet(reply)
        outer = icmpv6.ICMPv6Message.unpack(outer_payload)
        inner_header, inner_payload = ipv6.split_packet(outer.quotation)
        inner = icmpv6.ICMPv6Message.unpack(inner_payload)
        assert inner_header.dst == dst
        assert inner.body == b"state"
