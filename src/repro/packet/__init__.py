"""Byte-level packet crafting and parsing: IPv6, ICMPv6, TCP, UDP."""

from .checksum import (
    address_checksum,
    checksum_fudge,
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    transport_checksum,
    verify_transport_checksum,
)
from .fragment import (
    FragmentHeader,
    PROTO_FRAGMENT,
    extract_identification,
    unwrap,
    wrap_atomic,
)
from .icmpv6 import (
    ICMPv6Message,
    UnreachableCode,
    classify_response,
    echo_reply,
    echo_request,
    time_exceeded,
    unreachable_code,
)
from .ipv6 import (
    DEFAULT_HOP_LIMIT,
    PROTO_ICMPV6,
    PROTO_TCP,
    PROTO_UDP,
    IPv6Header,
    PacketError,
    build_packet,
    split_packet,
)
from .tcp import TCPHeader, build_segment, split_segment, verify_segment
from .udp import UDPHeader, build_datagram, split_datagram, verify_datagram

__all__ = [
    "DEFAULT_HOP_LIMIT",
    "FragmentHeader",
    "ICMPv6Message",
    "IPv6Header",
    "PROTO_FRAGMENT",
    "PROTO_ICMPV6",
    "PROTO_TCP",
    "PROTO_UDP",
    "PacketError",
    "TCPHeader",
    "UDPHeader",
    "UnreachableCode",
    "address_checksum",
    "build_datagram",
    "build_packet",
    "build_segment",
    "checksum_fudge",
    "classify_response",
    "echo_reply",
    "echo_request",
    "extract_identification",
    "internet_checksum",
    "ones_complement_sum",
    "pseudo_header",
    "split_datagram",
    "split_packet",
    "split_segment",
    "time_exceeded",
    "transport_checksum",
    "unreachable_code",
    "unwrap",
    "verify_datagram",
    "verify_segment",
    "verify_transport_checksum",
    "wrap_atomic",
]
