"""Cross-cutting robustness: fuzzed inputs must never crash the stack.

A measurement tool lives on hostile input — mangled quotations, foreign
ICMPv6, truncated packets.  These property tests drive arbitrary bytes
through every parser-facing surface and assert graceful behaviour
(counted, skipped, or raising only the documented error types).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import MAX_ADDRESS
from repro.netsim import Internet, InternetConfig, build_internet
from repro.packet import icmpv6, ipv6
from repro.packet.ipv6 import IPv6Header, PacketError
from repro.prober.encoding import DecodeError, decode_quotation, encode_probe
from repro.prober.output import OutputError, loads
from repro.prober.records import ResponseProcessor


@pytest.fixture(scope="module")
def net():
    return Internet(config=InternetConfig(n_edge=10, cpe_customers_per_isp=30, seed=2))


class TestParserFuzz:
    @given(st.binary(max_size=200))
    def test_ipv6_unpack_never_crashes(self, data):
        try:
            IPv6Header.unpack(data)
        except PacketError:
            pass

    @given(st.binary(max_size=200))
    def test_icmpv6_unpack_never_crashes(self, data):
        try:
            icmpv6.ICMPv6Message.unpack(data)
        except PacketError:
            pass

    @given(st.binary(max_size=300))
    def test_decode_quotation_never_crashes(self, data):
        try:
            decode_quotation(data)
        except DecodeError:
            pass

    @given(st.binary(max_size=300))
    def test_response_processor_never_crashes(self, data):
        processor = ResponseProcessor()
        processor.process(data, now=0, sent_so_far=1)
        # Whatever happened, it was accounted somewhere.
        assert processor.received == 1

    @given(st.text(max_size=400))
    def test_output_loads_never_crashes(self, text):
        try:
            loads(text)
        except OutputError:
            pass


#: A valid Yarrp6 probe for every protocol the prober speaks.
_ADDRESSES = st.integers(min_value=0, max_value=MAX_ADDRESS)
_PROBES = st.builds(
    encode_probe,
    src=_ADDRESSES,
    target=_ADDRESSES,
    ttl=st.integers(min_value=0, max_value=255),
    elapsed=st.integers(min_value=0, max_value=2**32 - 1),
    instance=st.integers(min_value=0, max_value=255),
    protocol=st.sampled_from(["icmp6", "udp", "tcp"]),
)
#: 0-4 bit flips as (byte position modulo the length, bit).
_FLIPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**16), st.integers(0, 7)),
    max_size=4,
)


def _mangled(data, flips):
    """``data`` truncated to every length, each with the bits flipped."""
    for length in range(len(data) + 1):
        cut = bytearray(data[:length])
        for position, bit in flips:
            if cut:
                cut[position % len(cut)] ^= 1 << bit
        yield bytes(cut)


class TestDecodeBoundary:
    """The byte boundary of the stateless design: whatever a router or a
    middlebox did to our probe on its way back, decoding either succeeds
    or fails with the typed error — never an IndexError/struct.error."""

    @settings(max_examples=60, deadline=None)
    @given(_PROBES, _FLIPS)
    def test_decode_quotation_returns_or_raises_decode_error(self, probe, flips):
        for quotation in _mangled(probe, flips):
            try:
                decoded = decode_quotation(quotation)
            except DecodeError:
                continue
            assert 0 <= decoded.ttl <= 255

    @settings(max_examples=25, deadline=None)
    @given(
        _PROBES,
        _FLIPS,
        _FLIPS,
        _ADDRESSES,
        _ADDRESSES,
        st.sampled_from([icmpv6.TYPE_TIME_EXCEEDED, icmpv6.TYPE_DEST_UNREACH]),
        st.integers(min_value=0, max_value=6),
    )
    def test_processor_accounts_for_every_mangled_response(
        self, probe, quote_flips, wire_flips, router, vantage, msg_type, code
    ):
        processor = ResponseProcessor()
        calls = 0
        # Every third truncation of the quotation, wrapped in a real
        # ICMPv6 error, then mangled again on the wire.
        for quotation in list(_mangled(probe, quote_flips))[::3]:
            response = icmpv6.error_packet(router, vantage, msg_type, code, 0, quotation)
            for data in _mangled(response, wire_flips):
                record = processor.process(data, now=1_000, sent_so_far=calls + 1)
                calls += 1
                assert record is None or record.hop == router or wire_flips
        assert processor.received == calls


class TestInternetFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=MAX_ADDRESS),
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=60),
    )
    def test_arbitrary_payload_probes(self, dst, hop_limit, next_header, payload):
        """Any syntactically valid IPv6 packet from a vantage gets either
        a response or silence — never an exception."""
        internet = _NET
        vantage = internet.vantage("US-EDU-1")
        packet = ipv6.build_packet(
            IPv6Header(vantage.address, dst, 0, next_header, hop_limit=hop_limit),
            payload,
        )
        response = internet.probe(packet, now=0)
        if response is not None:
            assert isinstance(response.data, bytes)
            # Responses themselves parse as IPv6.
            IPv6Header.unpack(response.data)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=39))
    def test_short_packets_rejected_cleanly(self, data):
        internet = _NET
        with pytest.raises((PacketError, ValueError)):
            internet.probe(data, now=0)


# Hypothesis forbids function-scoped fixtures in @given tests; a module
# global keeps one simulator for all examples.
_NET = Internet(config=InternetConfig(n_edge=10, cpe_customers_per_isp=30, seed=2))
