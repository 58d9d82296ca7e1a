"""IPv6 fixed header (RFC 8200) serialization and parsing."""

from __future__ import annotations

import struct
from typing import Tuple

from ..addrs import address
from ..addrs.address import IID_MASK, MAX_ADDRESS

#: Header length in bytes.
HEADER_LENGTH = 40

#: IP version carried in the first nybble.
VERSION = 6

# Next-header (protocol) numbers used by this library.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMPV6 = 58

#: Default hop limit for locally originated packets.
DEFAULT_HOP_LIMIT = 64

#: The whole fixed header: first word (version, traffic class, flow
#: label), payload length, next header, hop limit, and both addresses
#: as 64-bit halves.
HEADER = struct.Struct("!IHBBQQQQ")


class PacketError(ValueError):
    """Raised when bytes cannot be parsed as the expected packet."""


class IPv6Header:
    """The 40-byte IPv6 fixed header.

    Fields follow RFC 8200: traffic class and flow label are carried but
    unused by the prober (kept constant per target so per-flow load
    balancers hash probes onto one path, after Paris traceroute).
    """

    __slots__ = (
        "src",
        "dst",
        "payload_length",
        "next_header",
        "hop_limit",
        "traffic_class",
        "flow_label",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        payload_length: int,
        next_header: int,
        hop_limit: int = DEFAULT_HOP_LIMIT,
        traffic_class: int = 0,
        flow_label: int = 0,
    ) -> None:
        if not 0 <= payload_length <= 0xFFFF:
            raise PacketError("payload length out of range: %r" % payload_length)
        if not 0 <= next_header <= 0xFF:
            raise PacketError("next header out of range: %r" % next_header)
        if not 0 <= hop_limit <= 0xFF:
            raise PacketError("hop limit out of range: %r" % hop_limit)
        if not 0 <= traffic_class <= 0xFF:
            raise PacketError("traffic class out of range: %r" % traffic_class)
        if not 0 <= flow_label <= 0xFFFFF:
            raise PacketError("flow label out of range: %r" % flow_label)
        self.src = src
        self.dst = dst
        self.payload_length = payload_length
        self.next_header = next_header
        self.hop_limit = hop_limit
        self.traffic_class = traffic_class
        self.flow_label = flow_label

    def pack(self) -> bytes:
        """Serialize to 40 network-order bytes."""
        src = self.src
        dst = self.dst
        try:
            return HEADER.pack(
                (VERSION << 28) | (self.traffic_class << 20) | self.flow_label,
                self.payload_length,
                self.next_header,
                self.hop_limit,
                src >> 64,
                src & IID_MASK,
                dst >> 64,
                dst & IID_MASK,
            )
        except struct.error:
            if 0 <= src <= MAX_ADDRESS and 0 <= dst <= MAX_ADDRESS:
                raise
            raise OverflowError(
                "address out of range: src %#x, dst %#x" % (src, dst)
            ) from None

    @classmethod
    def unpack(cls, data: bytes) -> "IPv6Header":
        """Parse the first 40 bytes of ``data`` as an IPv6 header."""
        (
            first_word,
            payload_length,
            next_header,
            hop_limit,
            src_high,
            src_low,
            dst_high,
            dst_low,
        ) = header_fields(data)
        # Every field is as wide as its wire encoding, so none can be out
        # of the range ``__init__`` checks: build the value directly.
        header = cls.__new__(cls)
        header.src = (src_high << 64) | src_low
        header.dst = (dst_high << 64) | dst_low
        header.payload_length = payload_length
        header.next_header = next_header
        header.hop_limit = hop_limit
        header.traffic_class = (first_word >> 20) & 0xFF
        header.flow_label = first_word & 0xFFFFF
        return header

    def copy(self, **overrides: int) -> "IPv6Header":
        """A copy with the given fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(overrides)
        return IPv6Header(**fields)

    def __repr__(self) -> str:
        return "IPv6Header(%s -> %s, nh=%d, hlim=%d, plen=%d)" % (
            address.format_address(self.src),
            address.format_address(self.dst),
            self.next_header,
            self.hop_limit,
            self.payload_length,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv6Header) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )


def header_fields(data: bytes) -> Tuple[int, ...]:
    """The eight :data:`HEADER` fields at the start of ``data``.

    The one place a fixed header is checked to be whole and version 6;
    readers that want a few fields take them from here, the rest go
    through :meth:`IPv6Header.unpack`.
    """
    if len(data) < HEADER_LENGTH:
        raise PacketError(
            "short IPv6 header: %d < %d bytes" % (len(data), HEADER_LENGTH)
        )
    fields = HEADER.unpack_from(data)
    version = fields[0] >> 28
    if version != VERSION:
        raise PacketError("not IPv6 (version %d)" % version)
    return fields


def build_packet(header: IPv6Header, payload: bytes) -> bytes:
    """Serialize header + payload, fixing up the payload length field."""
    length = len(payload)
    if header.payload_length != length:
        header = IPv6Header(
            header.src,
            header.dst,
            length,
            header.next_header,
            header.hop_limit,
            header.traffic_class,
            header.flow_label,
        )
    return header.pack() + payload


def split_packet(data: bytes) -> Tuple[IPv6Header, bytes]:
    """Parse a packet into (header, payload bytes).

    The payload is truncated/padded view of the remaining bytes; a payload
    shorter than the header's declared length is tolerated (ICMPv6 error
    quotations are routinely truncated).
    """
    header = IPv6Header.unpack(data)
    return header, data[HEADER_LENGTH:]
