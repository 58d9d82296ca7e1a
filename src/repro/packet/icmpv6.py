"""ICMPv6 (RFC 4443) message construction and parsing.

Covers the message types active topology discovery lives on:

* Echo Request / Echo Reply — the ICMPv6 probe transport;
* Time Exceeded — the hop announcement elicited by TTL expiry, which must
  quote as much of the invoking packet as fits (RFC 4443 Section 3.3:
  "as much of invoking packet as possible without the ICMPv6 packet
  exceeding the minimum IPv6 MTU") — Yarrp6's statelessness depends on
  recovering its payload from these quotations;
* Destination Unreachable with its codes (no route, administratively
  prohibited, address unreachable, port unreachable, reject route), whose
  distribution the paper reports in Table 4.
"""

from __future__ import annotations

import enum
import struct

from ..addrs.address import IID_MASK, MAX_ADDRESS
from .checksum import transport_checksum, verify_transport_checksum
from .ipv6 import (
    DEFAULT_HOP_LIMIT,
    HEADER,
    PROTO_ICMPV6,
    VERSION,
    PacketError,
)

# ICMPv6 type numbers (RFC 4443).
TYPE_DEST_UNREACH = 1
TYPE_PACKET_TOO_BIG = 2
TYPE_TIME_EXCEEDED = 3
TYPE_PARAM_PROBLEM = 4
TYPE_ECHO_REQUEST = 128
TYPE_ECHO_REPLY = 129

# Time Exceeded codes.
CODE_HOP_LIMIT_EXCEEDED = 0

#: Minimum IPv6 MTU; an ICMPv6 error must not exceed it (RFC 4443 §2.4(c)).
MINIMUM_MTU = 1280

#: Bytes available for the invoking-packet quotation inside an error:
#: minimum MTU minus the IPv6 header (40) and ICMPv6 header (8).
MAX_QUOTATION = MINIMUM_MTU - 40 - 8

#: ICMPv6 header: type, code, checksum, 4-byte body word.
_MESSAGE = struct.Struct("!BBHI")

#: IPv6 fixed header followed by the ICMPv6 header: the 48 bytes ahead
#: of an error's quotation or an echo's body, packed by
#: :func:`error_packet` and read back by ``ResponseProcessor.process``.
ERROR_PACKET = struct.Struct(HEADER.format + "BBHI")

#: Table 4 label per ``(type, code)`` of every response the simulator
#: sends; :func:`response_label` covers the rest.
RESPONSE_LABELS = {
    (TYPE_TIME_EXCEEDED, CODE_HOP_LIMIT_EXCEEDED): "time exceeded",
    (TYPE_ECHO_REPLY, 0): "echo reply",
    (TYPE_DEST_UNREACH, 0): "no route to destination",
    (TYPE_DEST_UNREACH, 1): "administratively prohibited",
    (TYPE_DEST_UNREACH, 2): "beyond scope of source",
    (TYPE_DEST_UNREACH, 3): "address unreachable",
    (TYPE_DEST_UNREACH, 4): "port unreachable",
    (TYPE_DEST_UNREACH, 5): "source address failed policy",
    (TYPE_DEST_UNREACH, 6): "reject route to destination",
}


class UnreachableCode(enum.IntEnum):
    """Destination Unreachable codes (RFC 4443 Section 3.1)."""

    NO_ROUTE = 0
    ADMIN_PROHIBITED = 1
    BEYOND_SCOPE = 2
    ADDRESS_UNREACHABLE = 3
    PORT_UNREACHABLE = 4
    FAILED_POLICY = 5
    REJECT_ROUTE = 6

    def label(self) -> str:
        """Human-readable label matching the paper's Table 4 rows."""
        return RESPONSE_LABELS[TYPE_DEST_UNREACH, self]


class ICMPv6Message:
    """A parsed ICMPv6 message: type, code, 4-byte body word, and body.

    For echo messages the body word holds (identifier, sequence); for
    errors it is unused (zero) and ``body`` is the invoking-packet
    quotation.
    """

    __slots__ = ("msg_type", "code", "word", "body", "checksum")

    def __init__(
        self,
        msg_type: int,
        code: int,
        word: int = 0,
        body: bytes = b"",
        checksum: int = 0,
    ) -> None:
        self.msg_type = msg_type & 0xFF
        self.code = code & 0xFF
        self.word = word & 0xFFFFFFFF
        self.body = body
        self.checksum = checksum & 0xFFFF

    # -- echo accessors -------------------------------------------------
    @property
    def identifier(self) -> int:
        """Echo identifier (high half of the body word)."""
        return self.word >> 16

    @property
    def sequence(self) -> int:
        """Echo sequence number (low half of the body word)."""
        return self.word & 0xFFFF

    @property
    def quotation(self) -> bytes:
        """The invoking-packet quotation of an error message."""
        return self.body

    @property
    def is_time_exceeded(self) -> bool:
        return self.msg_type == TYPE_TIME_EXCEEDED

    @property
    def is_echo_reply(self) -> bool:
        return self.msg_type == TYPE_ECHO_REPLY

    def pack(self, src: int = 0, dst: int = 0, compute_checksum: bool = True) -> bytes:
        """Serialize; when ``compute_checksum`` the pseudo-header checksum
        for (src, dst) is filled in, else the stored checksum is used."""
        value = self.checksum
        if compute_checksum:
            segment = _MESSAGE.pack(self.msg_type, self.code, 0, self.word) + self.body
            value = transport_checksum(src, dst, PROTO_ICMPV6, segment)
        return _MESSAGE.pack(self.msg_type, self.code, value, self.word) + self.body

    @classmethod
    def unpack(cls, data: bytes) -> "ICMPv6Message":
        """Parse an ICMPv6 segment (at least the 8-byte header)."""
        if len(data) < 8:
            raise PacketError("short ICMPv6 segment: %d bytes" % len(data))
        msg_type, code, checksum, word = _MESSAGE.unpack_from(data)
        return cls(msg_type, code, word, data[8:], checksum)

    def verify(self, src: int, dst: int) -> bool:
        """Validate the embedded checksum against (src, dst)."""
        packed = self.pack(compute_checksum=False)
        return verify_transport_checksum(src, dst, PROTO_ICMPV6, packed)

    def __repr__(self) -> str:
        return "ICMPv6Message(type=%d, code=%d, body=%dB)" % (
            self.msg_type,
            self.code,
            len(self.body),
        )


def echo_request(identifier: int, sequence: int, payload: bytes = b"") -> ICMPv6Message:
    """Build an Echo Request (the paper's preferred probe type)."""
    word = ((identifier & 0xFFFF) << 16) | (sequence & 0xFFFF)
    return ICMPv6Message(TYPE_ECHO_REQUEST, 0, word, payload)


def echo_reply(identifier: int, sequence: int, payload: bytes = b"") -> ICMPv6Message:
    """Build an Echo Reply mirroring a request."""
    word = ((identifier & 0xFFFF) << 16) | (sequence & 0xFFFF)
    return ICMPv6Message(TYPE_ECHO_REPLY, 0, word, payload)


def time_exceeded(invoking_packet: bytes) -> ICMPv6Message:
    """Build a Time Exceeded (hop limit) error quoting the invoking packet.

    The quotation is truncated to fit the minimum-MTU bound; with IPv6
    this is generous enough to return entire probe packets, which is what
    lets Yarrp6 move its state into the payload (Section 4.1).
    """
    return ICMPv6Message(
        TYPE_TIME_EXCEEDED,
        CODE_HOP_LIMIT_EXCEEDED,
        0,
        invoking_packet[:MAX_QUOTATION],
    )


def error_packet(
    src: int, dst: int, msg_type: int, code: int, word: int, quotation: bytes
) -> bytes:
    """The complete IPv6 packet carrying one ICMPv6 error, in one pass.

    Byte-identical to ``build_packet(IPv6Header(src, dst, 0, 58),
    ICMPv6Message(msg_type, code, word, quotation).pack(src, dst))`` —
    what a router emits per answered probe — without the intermediate
    message, segment, pseudo-header and header objects: both headers
    come from one ``Struct.pack`` and the checksum from one
    ``int.from_bytes`` of the quotation plus the integer values of the
    fields it covers, folded once (see
    :func:`~repro.packet.checksum.pseudo_header_sum` and
    :func:`~repro.packet.checksum.fold_sum`).  ``quotation`` is
    truncated to :data:`MAX_QUOTATION`; an address outside 128 bits
    raises ``OverflowError``.
    """
    if not (0 <= src <= MAX_ADDRESS and 0 <= dst <= MAX_ADDRESS):
        raise OverflowError("address out of range: src %#x, dst %#x" % (src, dst))
    quotation = quotation[:MAX_QUOTATION]
    length = 8 + len(quotation)
    total = int.from_bytes(quotation, "big")
    if length & 1:
        total <<= 8
    # Never zero (``length`` is at least 8), so the fold is one modulo.
    total += src + dst + length + PROTO_ICMPV6 + (msg_type << 8 | code) + word
    return (
        ERROR_PACKET.pack(
            VERSION << 28,
            length,
            PROTO_ICMPV6,
            DEFAULT_HOP_LIMIT,
            src >> 64,
            src & IID_MASK,
            dst >> 64,
            dst & IID_MASK,
            msg_type,
            code,
            ~((total - 1) % 0xFFFF + 1) & 0xFFFF,
            word,
        )
        + quotation
    )


def response_label(msg_type: int, code: int) -> str:
    """Table 4 style label for a response of this type and code."""
    label = RESPONSE_LABELS.get((msg_type, code))
    if label is not None:
        return label
    if msg_type == TYPE_TIME_EXCEEDED:
        return "time exceeded"
    if msg_type == TYPE_ECHO_REPLY:
        return "echo reply"
    if msg_type == TYPE_DEST_UNREACH:
        return "destination unreachable (code %d)" % code
    return "icmpv6 type %d" % msg_type


def classify_response(message: ICMPv6Message) -> str:
    """Table 4 style label for a response message."""
    return response_label(message.msg_type, message.code)
