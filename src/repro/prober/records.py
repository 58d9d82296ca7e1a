"""Probe result records and shared response-processing machinery.

Every prober in the library — Yarrp6, the sequential (scamper-like)
baseline, and Doubletree — receives the same kinds of packets back from
the network: ICMPv6 Time Exceeded with a quotation, terminal ICMPv6
errors, Echo Replies, and TCP RSTs.  :class:`ResponseProcessor` turns raw
response bytes into :class:`ProbeRecord` entries and keeps the counters
the evaluation reads (interface discovery curve, response-type mix,
decode failures, detected target rewrites).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..packet import icmpv6, ipv6
from ..packet.icmpv6 import (
    ERROR_PACKET,
    RESPONSE_LABELS,
    TYPE_ECHO_REPLY,
    TYPE_TIME_EXCEEDED,
)
from ..packet.ipv6 import PROTO_ICMPV6, PROTO_TCP
from .encoding import MAGIC, PAYLOAD_HEAD, DecodeError, decode_at

#: The IPv6 + ICMPv6 headers ahead of an echo's body or an error's quotation.
_HEAD_LENGTH = ERROR_PACKET.size


class ProbeRecord:
    """One response attributed to one probe."""

    __slots__ = (
        "target",
        "ttl",
        "hop",
        "icmp_type",
        "icmp_code",
        "label",
        "rtt_us",
        "received_at",
        "target_modified",
    )

    def __init__(
        self,
        target: int,
        ttl: int,
        hop: int,
        icmp_type: int,
        icmp_code: int,
        label: str,
        rtt_us: int,
        received_at: int,
        target_modified: bool = False,
    ) -> None:
        self.target = target
        #: Originating hop limit of the probe (the hop index answered).
        self.ttl = ttl
        #: Source address of the response — an interface address in the
        #: paper's terminology.
        self.hop = hop
        self.icmp_type = icmp_type
        self.icmp_code = icmp_code
        #: Human-readable response class (Table 4 rows).
        self.label = label
        self.rtt_us = rtt_us
        self.received_at = received_at
        self.target_modified = target_modified

    @property
    def is_time_exceeded(self) -> bool:
        return self.icmp_type == icmpv6.TYPE_TIME_EXCEEDED

    @property
    def is_terminal(self) -> bool:
        """A response that ends a path: echo reply or destination error."""
        return not self.is_time_exceeded

    def __repr__(self) -> str:
        return "ProbeRecord(ttl=%d, %s)" % (self.ttl, self.label)


class ResponseProcessor:
    """Decodes response packets into records and aggregates statistics."""

    def __init__(self, instance: Optional[int] = None) -> None:
        self.instance = instance
        self.records: List[ProbeRecord] = []
        #: Unique response source addresses from ICMPv6 *Time Exceeded*
        #: messages — the paper's "interface address" definition (§4.2).
        self.interfaces: Set[int] = set()
        #: Unique sources of any ICMPv6 response (superset of the above).
        self.responders: Set[int] = set()
        #: (probes_sent, unique_interfaces) checkpoints for Figure 7.
        self.curve: List[Tuple[int, int]] = []
        self.received = 0
        self.tcp_responses = 0
        self.decode_failures = 0
        self.foreign = 0
        self.mangled_targets = 0
        self.response_labels: Dict[str, int] = {}

    def process(self, data: bytes, now: int, sent_so_far: int) -> Optional[ProbeRecord]:
        """Interpret response bytes; returns the record, or None when the
        packet is foreign/undecodable (still counted).

        The IPv6 and ICMPv6 headers are read once, as integers, by the
        struct :func:`~repro.packet.icmpv6.error_packet` packs them with;
        an error's quotation is decoded in place, after them
        (:func:`~repro.prober.encoding.decode_at`).  An RTT is the
        32-bit truncated send timestamp's distance to ``now``
        (:func:`~repro.prober.encoding.rtt_from`)."""
        self.received += 1
        if len(data) < ipv6.HEADER_LENGTH or data[0] >> 4 != ipv6.VERSION:
            self.decode_failures += 1
            return None
        next_header = data[6]
        if next_header == PROTO_TCP:
            self.tcp_responses += 1
            return None
        if next_header != PROTO_ICMPV6:
            self.foreign += 1
            return None
        if len(data) < _HEAD_LENGTH:
            self.decode_failures += 1
            return None
        _, _, _, _, src_high, src_low, _, _, msg_type, code, _, _ = ERROR_PACKET.unpack_from(data)
        hop = (src_high << 64) | src_low

        if msg_type == TYPE_ECHO_REPLY:
            # Echo replies mirror our 12-byte payload; recover state from it.
            if len(data) < _HEAD_LENGTH + PAYLOAD_HEAD.size:
                self.decode_failures += 1
                return None
            magic, instance, ttl, elapsed = PAYLOAD_HEAD.unpack_from(data, _HEAD_LENGTH)
            if magic != MAGIC or (self.instance is not None and instance != self.instance):
                self.foreign += 1
                return None
            modified = False
            label = "echo reply"
            record = ProbeRecord(
                hop, ttl, hop, msg_type, code, label, (now - elapsed) & 0xFFFFFFFF, now
            )
        elif msg_type < 128:
            try:
                target, ttl, elapsed, _, _, modified = decode_at(
                    data, _HEAD_LENGTH, self.instance
                )
            except DecodeError:
                self.decode_failures += 1
                return None
            label = RESPONSE_LABELS.get((msg_type, code)) or icmpv6.response_label(
                msg_type, code
            )
            record = ProbeRecord(
                target,
                ttl,
                hop,
                msg_type,
                code,
                label,
                (now - elapsed) & 0xFFFFFFFF,
                now,
                modified,
            )
        else:
            self.foreign += 1
            return None

        self.records.append(record)
        self.response_labels[label] = self.response_labels.get(label, 0) + 1
        if modified:
            self.mangled_targets += 1
        self.responders.add(hop)
        if msg_type == TYPE_TIME_EXCEEDED and hop not in self.interfaces:
            self.interfaces.add(hop)
            self.curve.append((sent_so_far, len(self.interfaces)))
        return record
