"""Per-flow load balancing (ECMP) hashing.

IPv6 routers balance flows across equal-cost paths by hashing header
fields.  For TCP and UDP the five-tuple is used; for ICMPv6, deployed
hardware hashes the *checksum* field (Almeida et al. 2017), which is why
Yarrp6 burns two payload bytes on checksum "fudge": keeping the checksum
constant per target keeps every probe for a target on one path
(Section 4.1 of the paper).
"""

from __future__ import annotations

from ..packet import ipv6, tcp, udp
from ..packet.ipv6 import IPv6Header

#: Number of path variants the simulator distinguishes; ECMP groups pick
#: ``variant % len(options)``.
VARIANTS = 4

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


#: Next headers whose first four transport bytes join the flow key:
#: TCP/UDP ports, and ICMPv6 type, code and — critically — the checksum.
_HASHED_TRANSPORT = frozenset((ipv6.PROTO_TCP, ipv6.PROTO_UDP, ipv6.PROTO_ICMPV6))


def flow_key(header: IPv6Header, payload: bytes) -> bytes:
    """The bytes a load balancer hashes for this packet: source,
    destination, next header, flow label, then the transport bytes."""
    base = (
        (((header.src << 128) | header.dst) << 32)
        | (header.next_header << 24)
        | header.flow_label
    ).to_bytes(36, "big")
    if header.next_header in _HASHED_TRANSPORT and len(payload) >= 4:
        return base + payload[:4]
    return base


def flow_hash(header: IPv6Header, payload: bytes) -> int:
    """64-bit flow hash of a packet."""
    return _fnv(flow_key(header, payload))


def flow_variant(header: IPv6Header, payload: bytes) -> int:
    """Path variant in [0, VARIANTS) selected by this packet's flow."""
    return flow_hash(header, payload) % VARIANTS
