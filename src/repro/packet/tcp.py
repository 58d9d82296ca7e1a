"""TCP header (RFC 793) over IPv6 — the subset probing needs.

Yarrp6's TCP mode sends SYN (or ACK) segments toward port 80; the only
responses that matter to topology discovery are ICMPv6 errors quoting the
segment, plus RST/SYN-ACK from reachable end hosts.  Options are not
modeled; the data offset is fixed at 5 words.
"""

from __future__ import annotations

import struct
from typing import Tuple

from .checksum import transport_checksum, verify_transport_checksum
from .ipv6 import PacketError

HEADER_LENGTH = 20

# Flag bits.
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20


class TCPHeader:
    """A 20-byte option-less TCP header."""

    __slots__ = (
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "window",
        "checksum",
        "urgent",
    )

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = FLAG_SYN,
        window: int = 65535,
        checksum: int = 0,
        urgent: int = 0,
    ) -> None:
        for name, value in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= value <= 0xFFFF:
                raise PacketError("%s out of range: %r" % (name, value))
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags & 0x3F
        self.window = window & 0xFFFF
        self.checksum = checksum & 0xFFFF
        self.urgent = urgent & 0xFFFF

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    def pack(self) -> bytes:
        offset_flags = (5 << 12) | self.flags
        return struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < HEADER_LENGTH:
            raise PacketError("short TCP header: %d bytes" % len(data))
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack("!HHIIHHHH", data[:HEADER_LENGTH])
        return cls(
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags & 0x3F,
            window,
            checksum,
            urgent,
        )

    def __repr__(self) -> str:
        names = []
        for bit, name in ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_RST, "RST")):
            if self.flags & bit:
                names.append(name)
        return "TCPHeader(%d -> %d, %s)" % (
            self.src_port,
            self.dst_port,
            "|".join(names) or "none",
        )


def build_segment(src: int, dst: int, header: TCPHeader, payload: bytes = b"") -> bytes:
    """A complete TCP segment with the IPv6 pseudo-header checksum set."""
    header.checksum = 0
    segment = header.pack() + payload
    value = transport_checksum(src, dst, 6, segment)
    return segment[:16] + value.to_bytes(2, "big") + segment[18:]


def split_segment(data: bytes) -> Tuple[TCPHeader, bytes]:
    """Parse a TCP segment into (header, payload bytes)."""
    header = TCPHeader.unpack(data)
    return header, data[HEADER_LENGTH:]


def verify_segment(src: int, dst: int, segment: bytes) -> bool:
    """Validate a received TCP segment's checksum."""
    return verify_transport_checksum(src, dst, 6, segment)
