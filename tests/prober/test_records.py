"""``ResponseProcessor.process`` against the object-based decoder it
replaced, and the call and memory budgets of one probe's wire exchange.

``process`` reads the IPv6 and ICMPv6 headers of a response once, as
integers (``icmpv6.ERROR_PACKET``), and decodes an error's quotation
straight from the bytes after them.  It used to parse an ``IPv6Header``,
an ``ICMPv6Message`` and two byte slices first; that decoder is kept
below, verbatim, as the oracle of a differential over real
smoke-campaign responses and the mangled variants a router or a
middlebox could hand back.

Two budgets pin what one probe's round trip costs on each loop it runs
in: Python calls (:class:`TestCallBudget`) and bytes retained
(:class:`TestRetainedBytes`).
"""

import collections
import contextlib
import gc
import sys
import tracemalloc
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Internet, InternetConfig, build_internet
from repro.obs import WallProfiler
from repro.packet import icmpv6, ipv6, udp
from repro.packet.ipv6 import PROTO_ICMPV6, PROTO_TCP, PROTO_UDP, IPv6Header
from repro.prober import run_sequential, run_yarrp6
from repro.prober.encoding import (
    MAGIC,
    PAYLOAD_HEAD,
    DecodedProbe,
    DecodeError,
    decode_at,
    decode_quotation,
    rtt_from,
)
from repro.prober.records import ProbeRecord, ResponseProcessor

#: The CI smoke world (``repro-sim world --edge 30 --cpe 150 --seed 5``).
SMOKE = InternetConfig(n_edge=30, cpe_customers_per_isp=150, seed=5)

#: Every counter ``process`` keeps besides the records themselves.
STATE = (
    "received",
    "decode_failures",
    "foreign",
    "tcp_responses",
    "mangled_targets",
    "interfaces",
    "responders",
    "curve",
    "response_labels",
)


def _parent_classify_response(message: icmpv6.ICMPv6Message) -> str:
    """``icmpv6.classify_response`` with ``UnreachableCode.label()``'s
    per-call dict, as they read before the shared label table."""
    if message.msg_type == icmpv6.TYPE_TIME_EXCEEDED:
        return "time exceeded"
    if message.msg_type == icmpv6.TYPE_ECHO_REPLY:
        return "echo reply"
    if message.msg_type == icmpv6.TYPE_DEST_UNREACH:
        return {
            0: "no route to destination",
            1: "administratively prohibited",
            2: "beyond scope of source",
            3: "address unreachable",
            4: "port unreachable",
            5: "source address failed policy",
            6: "reject route to destination",
        }.get(message.code, "destination unreachable (code %d)" % message.code)
    return "icmpv6 type %d" % message.msg_type


class ObjectProcessor(ResponseProcessor):
    """The object-based ``process``, verbatim but for the label helper
    and the error test, spelled ``msg_type < 128`` (RFC 4443 Section 2.1)."""

    def process(self, data: bytes, now: int, sent_so_far: int) -> Optional[ProbeRecord]:
        self.received += 1
        try:
            header, payload = ipv6.split_packet(data)
        except ipv6.PacketError:
            self.decode_failures += 1
            return None
        if header.next_header == PROTO_TCP:
            self.tcp_responses += 1
            return None
        if header.next_header != PROTO_ICMPV6:
            self.foreign += 1
            return None
        try:
            message = icmpv6.ICMPv6Message.unpack(payload)
        except ipv6.PacketError:
            self.decode_failures += 1
            return None

        if message.is_echo_reply:
            record = self._from_echo_reply(header, message, now)
        elif message.msg_type < 128:
            record = self._from_error(header, message, now)
        else:
            self.foreign += 1
            return None
        if record is None:
            return None

        self.records.append(record)
        label_count = self.response_labels.get(record.label, 0)
        self.response_labels[record.label] = label_count + 1
        if record.target_modified:
            self.mangled_targets += 1
        self.responders.add(record.hop)
        if record.is_time_exceeded and record.hop not in self.interfaces:
            self.interfaces.add(record.hop)
            self.curve.append((sent_so_far, len(self.interfaces)))
        return record

    def _from_echo_reply(
        self, header: ipv6.IPv6Header, message: icmpv6.ICMPv6Message, now: int
    ) -> Optional[ProbeRecord]:
        body = message.body
        if len(body) < 10:
            self.decode_failures += 1
            return None
        magic, instance, ttl, elapsed = PAYLOAD_HEAD.unpack_from(body)
        if magic != MAGIC or (self.instance is not None and instance != self.instance):
            self.foreign += 1
            return None
        return ProbeRecord(
            target=header.src,
            ttl=ttl,
            hop=header.src,
            icmp_type=message.msg_type,
            icmp_code=message.code,
            label="echo reply",
            rtt_us=rtt_from(elapsed, now),
            received_at=now,
        )

    def _from_error(
        self, header: ipv6.IPv6Header, message: icmpv6.ICMPv6Message, now: int
    ) -> Optional[ProbeRecord]:
        try:
            decoded = decode_quotation(message.quotation, self.instance)
        except DecodeError:
            self.decode_failures += 1
            return None
        return ProbeRecord(
            target=decoded.target,
            ttl=decoded.ttl,
            hop=header.src,
            icmp_type=message.msg_type,
            icmp_code=message.code,
            label=_parent_classify_response(message),
            rtt_us=rtt_from(decoded.elapsed, now),
            received_at=now,
            target_modified=decoded.target_modified,
        )


def _fields(record: Optional[ProbeRecord]):
    if record is None:
        return None
    return tuple(getattr(record, name) for name in ProbeRecord.__slots__)


def _state(processor: ResponseProcessor) -> Dict[str, object]:
    state = {name: getattr(processor, name) for name in STATE}
    state["records"] = [_fields(record) for record in processor.records]
    return state


def _targets(built, count=40) -> List[int]:
    """``::1`` and the first host of ``count`` leaf /64s (gateways answer
    as routers, hosts as hosts), a sibling /64 of ten of those and ten
    addresses in unrouted ``3fff::/16`` (the errors)."""
    targets = []
    for subnet in list(built.truth.subnets.values())[:count]:
        targets.append(subnet.prefix.base | 1)
        targets.extend(subnet.host_addresses()[:1])
    targets += [target ^ 0xFF << 64 for target in targets[:20:2]]
    return targets + [0x3FFF << 112 | index for index in range(10)]


@pytest.fixture(scope="module")
def smoke_built():
    return build_internet(SMOKE)


@pytest.fixture(scope="module")
def responses(smoke_built) -> List[bytes]:
    """What three smoke walks (ICMPv6, UDP, TCP probes) got back, plus a
    rewritten quotation, a UDP datagram and echo replies whose bodies stop
    short of a payload."""
    internet = Internet(smoke_built)
    probe = internet.probe
    got: List[bytes] = []

    def recording(data: bytes, now: int):
        response = probe(data, now)
        if response is not None:
            got.append(response.data)
        return response

    internet.probe = recording
    targets = _targets(smoke_built)
    for protocol in ("icmp6", "udp", "tcp"):
        internet.fresh_run_state()
        run_yarrp6(internet, "EU-NET", targets, pps=5000, protocol=protocol)
    # A middlebox rewrote a quoted destination: the target checksum fails.
    rewritten = bytearray(next(data for data in got if data[40] == icmpv6.TYPE_TIME_EXCEEDED))
    rewritten[48 + 39] ^= 0x55
    got.append(bytes(rewritten))
    src, dst = internet.vantage("EU-NET").address, targets[0]
    got.append(
        ipv6.build_packet(
            IPv6Header(dst, src, 0, PROTO_UDP), udp.build_datagram(dst, src, 80, 4660, b"x")
        )
    )
    body = PAYLOAD_HEAD.pack(MAGIC, 1, 7, 1234) + b"\x00\x00"
    for length in range(len(body) + 1):
        got.append(
            ipv6.build_packet(
                IPv6Header(dst, src, 0, PROTO_ICMPV6),
                icmpv6.echo_reply(1, 2, body[:length]).pack(dst, src),
            )
        )
    return got


#: Where an error's quotation starts: after the IPv6 and ICMPv6 headers.
_QUOTE_AT = 48


def _feed(responses, instance, now=5_000_000):
    oracle, processor = ObjectProcessor(instance), ResponseProcessor(instance)
    for sent, data in enumerate(responses):
        expected = _fields(oracle.process(data, now + sent, sent))
        assert _fields(processor.process(data, now + sent, sent)) == expected, data.hex()
    assert _state(processor) == _state(oracle)
    return processor


class TestSameRecordsAsTheObjectDecoder:
    def test_the_pool_has_every_kind_of_response(self, responses):
        processor = _feed(responses, 1)
        labels = processor.response_labels
        assert {"time exceeded", "echo reply", "address unreachable"} <= set(labels)
        assert processor.tcp_responses and processor.foreign and processor.decode_failures
        assert processor.mangled_targets

    @pytest.mark.parametrize("instance", [None, 1, 2])
    def test_every_response_whole(self, responses, instance):
        _feed(responses, instance)

    def test_every_response_cut_at_every_length(self, responses):
        kinds = {}
        for data in responses:
            kinds.setdefault((data[6], data[40] if len(data) > 40 else None), data)
        _feed([data[:cut] for data in kinds.values() for cut in range(len(data) + 1)], 1)

    def test_the_in_place_decoder_at_every_cut(self, responses):
        """``decode_at(data, 48, instance)`` — what ``process`` and the
        fill prediction call — against ``decode_quotation`` of the
        quotation sliced off: every response cut at every length, the
        instance the decoder expects going round ``None``, 1 and 2, and
        each error's quotation rewritten and truncated the ways a router
        misquotes (``Internet._quote``; a truncation is one of the cuts)
        under each of them.  Same fields, or a ``DecodeError`` with the
        same message."""

        def cases():
            for number, data in enumerate(responses):
                for cut in range(len(data) + 1):
                    yield data[:cut], (None, 1, 2)[number % 3]
                if len(data) > _QUOTE_AT + 40 and data[40] < 128:
                    rewritten = bytearray(data)
                    rewritten[_QUOTE_AT + 38] ^= 0x55
                    for instance in (None, 1, 2):
                        yield bytes(rewritten), instance

        outcomes = collections.Counter()
        for data, instance in cases():
            try:
                decoded = decode_quotation(data[_QUOTE_AT:], instance)
            except DecodeError as error:
                expected = str(error)
                outcomes[expected.split(" ")[0]] += 1
            else:
                expected = tuple(getattr(decoded, name) for name in DecodedProbe.__slots__)
                outcomes["modified" if decoded.target_modified else "decoded"] += 1
            try:
                got = decode_at(data, _QUOTE_AT, instance)
            except DecodeError as error:
                got = str(error)
            assert got == expected, (data.hex(), instance)
        assert set(outcomes) == {"decoded", "modified", "unparseable", "quotation", "instance"}

    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        st.sampled_from([None, 1, 2]),
        st.one_of(st.none(), st.integers(0, 15)),
        st.one_of(st.none(), st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMPV6, 0, 59])),
        st.one_of(st.none(), st.sampled_from([1, 2, 3, 4, 127, 128, 129, 255])),
        st.one_of(st.none(), st.integers(0, 255)),
    )
    def test_flipped_fields(self, responses, data, instance, version, next_header, msg_type, code):
        """The version nibble, next header, ICMPv6 type and code of a real
        response rewritten, the result cut anywhere."""
        packet = bytearray(data.draw(st.sampled_from(responses)))
        if version is not None:
            packet[0] = version << 4 | packet[0] & 0x0F
        for offset, value in ((6, next_header), (40, msg_type), (41, code)):
            if value is not None and offset < len(packet):
                packet[offset] = value
        cut = data.draw(st.integers(0, len(packet)))
        _feed([bytes(packet), bytes(packet[:cut])], instance)


#: The three loops a probe's round trip runs in, as campaigns over the
#: smoke world's targets: the walk and the fill walk on the block loop,
#: ``run_sequential`` at 20 kpps on the per-event loop.
LOOPS = {
    "walk": lambda internet, targets, **kw: run_yarrp6(
        internet, "EU-NET", targets, pps=5000, **kw
    ),
    "fill": lambda internet, targets, **kw: run_yarrp6(
        internet, "EU-NET", targets, pps=5000, max_ttl=8, fill=True, **kw
    ),
    "per-event": lambda internet, targets, **kw: run_sequential(
        internet, "EU-NET", targets, pps=20_000, **kw
    ),
}


def _warmed(smoke_built, run):
    """An ``Internet`` over the smoke world that has run ``run`` once —
    compiling every path it takes — and been rewound, and the targets."""
    internet = Internet(smoke_built)
    targets = _targets(smoke_built)
    run(internet, targets)
    internet.fresh_run_state()
    return internet, targets


class TestCallBudget:
    """The wire exchange is a kernel too (``tests/netsim/test_build.py``
    ``TestFrameBudget`` for the build): Python-level calls per probe of a
    warm smoke-world campaign — exact, repeatable, the same on any host —
    on each of the three loops a probe's round trip runs in.
    """

    #: 54.7 with header and message objects on both sides (``split_packet``
    #: and ``IPv6Header.unpack`` twice per answered probe, an
    #: ``ICMPv6Message`` per response, the path's MTU check, ``path.length`` and
    #: the bucket refill a call each); 39.3 reading them as integers; 34.6
    #: with each probe handed to the wire from inside the pull loop and
    #: its delivery recording it straight (no ``receive`` wrapper, no
    #: null profiler handle, no null discovery or sent-series call); 29.2
    #: with the block loop recording its own replies (no ``schedule_at``,
    #: closure, engine pop or delivery call per response); 15.36 with the
    #: error crafted, its quotation decoded in place and the record built
    #: without a helper call (no checksum helpers, ``_quote``,
    #: ``Response.__init__``, ``header_fields``, ``DecodedProbe``,
    #: ``rtt_from`` or null ``inc``); 15.34 with no registry in the
    #: prober (no null ``inc`` a block); 12.50 with a probe that repeats
    #: its destination's last flow skipping ``header_fields``,
    #: ``flow_variant`` and ``path_for``.  The two block-loop budgets are
    #: their measured value plus 5 %: a helper re-wrapped around a
    #: per-response step costs ~0.8 a probe, around a per-probe step 1.0.
    CALLS_PER_PROBE = 13.1
    #: The fill walk (``max_ttl=8, fill=True``): 13.57, 13.54 with no
    #: registry in the prober, 10.85 with the flow slot, on the same loop.
    FILL_CALLS_PER_PROBE = 11.4
    #: The per-event loop (``run_sequential`` at 20 kpps): 35.87 while the
    #: engine and the prober held a registry (two null instrument calls
    #: per scheduled event, one per emission); 31.36 with none; 22.39
    #: with the loop holding its own replies (no ``exchange``,
    #: ``schedule_at``, closure, engine pop, ``deliver`` or resumption
    #: per probe); 19.69 with the flow slot; plus 2 % so that one more
    #: call per probe (20.69) fails.
    PER_EVENT_CALLS_PER_PROBE = 20.1

    @staticmethod
    def calls_per_probe(smoke_built, run) -> float:
        """Python calls per probe sent of ``run(internet, targets)``, its
        second run on one ``Internet`` (the first compiles every path)."""
        internet, targets = _warmed(smoke_built, run)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = run(internet, targets)
        finally:
            sys.setprofile(previous)
        return calls / result.sent

    def test_python_calls_per_probe_on_the_smoke_walk(self, smoke_built):
        assert self.calls_per_probe(smoke_built, LOOPS["walk"]) <= self.CALLS_PER_PROBE

    def test_python_calls_per_probe_on_the_fill_walk(self, smoke_built):
        assert self.calls_per_probe(smoke_built, LOOPS["fill"]) <= self.FILL_CALLS_PER_PROBE

    def test_python_calls_per_probe_on_the_per_event_loop(self, smoke_built):
        calls = self.calls_per_probe(smoke_built, LOOPS["per-event"])
        assert calls <= self.PER_EVENT_CALLS_PER_PROBE


class RetainedBytes(WallProfiler):
    """A wall profiler that also reads ``tracemalloc`` across the
    ``campaign.run`` phase: the bytes allocated in it and still held as it
    closes, with the prober and its records alive."""

    def __init__(self) -> None:
        super().__init__()
        self.retained = 0

    @contextlib.contextmanager
    def phase(self, name, **attrs):
        with super().phase(name, **attrs):
            start = tracemalloc.get_traced_memory()[0]
            yield
            if name == "campaign.run":
                self.retained = tracemalloc.get_traced_memory()[0] - start


class TestRetainedBytes:
    """What a probe leaves behind: Yarrp6 is stateless (paper §4.1), so a
    probe should keep its record and little else.  Bytes retained across
    ``campaign.run`` per probe sent, on the second run of each loop
    ``TestCallBudget`` pins — exact on one interpreter, repeat runs read
    the same.  Measured 315.12 (walk), 329.46 (fill walk) and 310.70
    (per-event; 342.69 while each reply was an engine event); each
    budget is that plus 10 %.  Keeping one copy of a
    probe's bytes adds ~120 a probe, keeping a one-key dict per response
    ~130 to ~170: both fail every row they reach
    (``tests/lint/test_mutation_table.py``)."""

    BYTES_PER_PROBE = {"walk": 346.6, "fill": 362.4, "per-event": 341.8}

    @staticmethod
    def bytes_per_probe(smoke_built, run) -> float:
        internet, targets = _warmed(smoke_built, run)
        profiler = RetainedBytes()
        # A full collection empties the interpreter's free lists, so each
        # object the run makes is a traced allocation, whatever ran before.
        gc.collect()
        tracemalloc.start()
        try:
            result = run(internet, targets, profiler=profiler)
        finally:
            tracemalloc.stop()
        return profiler.retained / result.sent

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_retained_bytes_per_probe(self, smoke_built, loop):
        assert self.bytes_per_probe(smoke_built, LOOPS[loop]) <= self.BYTES_PER_PROBE[loop]
