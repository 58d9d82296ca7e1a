"""Cross-cutting robustness: fuzzed inputs must never crash the stack.

A measurement tool lives on hostile input — mangled quotations, foreign
ICMPv6, truncated packets.  These property tests drive arbitrary bytes
through every parser-facing surface and assert graceful behaviour
(counted, skipped, or raising only the documented error types).
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import MAX_ADDRESS
from repro.cli.main import main as repro_sim
from repro.netsim import Internet, InternetConfig, build_internet
from repro.obs import MANIFEST_FORMAT, ManifestError, manifest_dumps, read_manifest
from repro.packet import icmpv6, ipv6
from repro.packet.ipv6 import IPv6Header, PacketError
from repro.prober.encoding import DecodeError, decode_quotation, encode_probe
from repro.prober.output import OutputError, load_campaign, loads, write_records
from repro.prober.records import ProbeRecord, ResponseProcessor


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


def _valid_yrp6():
    """Three rows (two hops and a destination answer) under a header block."""
    net = 0x20010DB8 << 96
    records = [
        ProbeRecord(
            target=net | index,
            ttl=ttl,
            hop=net | 0xFF00 | ttl,
            icmp_type=icmp_type,
            icmp_code=0,
            label="",
            rtt_us=1_500 + ttl,
            received_at=40_000 * ttl,
            target_modified=modified,
        )
        for index, (ttl, icmp_type, modified) in enumerate(
            [
                (1, icmpv6.TYPE_TIME_EXCEEDED, False),
                (7, icmpv6.TYPE_TIME_EXCEEDED, True),
                (9, icmpv6.TYPE_DEST_UNREACH, False),
            ]
        )
    ]
    sink = io.StringIO()
    write_records(sink, records, {"name": "fuzz", "vantage": "EU-NET", "sent": "48"})
    return sink.getvalue().encode()


def _valid_manifest():
    """Small, but with every section and metric kind ``stats`` renders."""
    return manifest_dumps(
        {
            "format": MANIFEST_FORMAT,
            "run": {"name": "fuzz", "sent": 48, "workers": 2},
            "seed": 5,
            "metrics": {
                "prober.sent": {"kind": "counter", "scope": "merge", "value": 48},
                "prober.ttl_yield": {"kind": "counter_map", "values": [[1, 3], [7, 3], [9, 1]]},
                "engine.depth": {"kind": "gauge", "last": 0, "min": 0, "max": 4},
                "prober.rtt": {"kind": "histogram", "bounds": [1.5], "counts": [2, 5]},
                "campaign.sent": {"kind": "series", "bucket_us": 10, "points": [[0, 16], [10, 32]]},
            },
            "failures": {
                "metrics": {"shard.retries": {"kind": "counter", "value": 1}},
                "attempts": [],
            },
            "wallclock": {
                "seconds": 0.25,
                "profile": {
                    "phases": [
                        {"path": "probe", "count": 1, "self_seconds": 0.01, "total_seconds": 0.2},
                        {"path": "probe/merge", "count": 1, "self_seconds": 0.19, "total_seconds": 0.19},
                    ]
                },
            },
        }
    ).encode()


#: 0-2 splices as (source start, length, insertion point), each modulo the length.
_SPLICES = st.lists(
    st.tuples(st.integers(0, 2**16), st.integers(1, 48), st.integers(0, 2**16)),
    max_size=2,
)


@pytest.mark.parametrize(
    "valid, reader, typed_error",
    [
        pytest.param(_valid_yrp6(), load_campaign, OutputError, id="yrp6"),
        pytest.param(_valid_manifest(), read_manifest, ManifestError, id="manifest"),
    ],
)
class TestFileReaderBoundary:
    """The file boundary, held to the decode boundary's line: whatever a
    disk, a transfer or an editor did to a file we wrote, its reader
    returns a result or raises its own ``path: reason`` error — never a
    UnicodeDecodeError, KeyError, TypeError, IndexError or struct.error —
    and ``stats`` renders every manifest ``read_manifest`` accepted."""

    @staticmethod
    def _read(path, data, reader, typed_error):
        path.write_bytes(data)
        try:
            reader(str(path))
        except typed_error as error:
            assert str(error).startswith("%s: " % path)
        else:
            if reader is read_manifest:
                out = io.StringIO()
                assert repro_sim(["stats", str(path), "--top", "3"], out=out) == 0, out.getvalue()

    def test_every_truncation(self, tmp_path_factory, valid, reader, typed_error):
        path = tmp_path_factory.getbasetemp() / "fuzz-cut"
        for length in range(len(valid) + 1):
            self._read(path, valid[:length], reader, typed_error)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**16), _FLIPS, _SPLICES)
    def test_flips_and_splices(
        self, tmp_path_factory, valid, reader, typed_error, keep, flips, splices
    ):
        data = bytearray(valid)
        for start, length, at in splices:
            start, at = start % len(data), at % len(data)
            data[at:at] = data[start : start + length]
        # Half the examples also lose their tail.
        data = data[: max(1, keep % (2 * len(data)))]
        for position, bit in flips:
            data[position % len(data)] ^= 1 << bit
        path = tmp_path_factory.getbasetemp() / "fuzz-mangled"
        self._read(path, bytes(data), reader, typed_error)


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
