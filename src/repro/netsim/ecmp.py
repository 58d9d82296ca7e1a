"""Per-flow load balancing (ECMP) hashing.

IPv6 routers balance flows across equal-cost paths by hashing header
fields.  For TCP and UDP the five-tuple is used; for ICMPv6, deployed
hardware hashes the *checksum* field (Almeida et al. 2017), which is why
Yarrp6 burns two payload bytes on checksum "fudge": keeping the checksum
constant per target keeps every probe for a target on one path
(Section 4.1 of the paper).
"""

from __future__ import annotations

from ..packet import ipv6

#: Number of path variants the simulator distinguishes; ECMP groups pick
#: ``variant % len(options)``.
VARIANTS = 4

#: Next headers whose first four transport bytes join the flow key:
#: TCP/UDP ports, and ICMPv6 type, code and — critically — the checksum.
_HASHED_TRANSPORT = frozenset((ipv6.PROTO_TCP, ipv6.PROTO_UDP, ipv6.PROTO_ICMPV6))

#: End of those four transport bytes within the packet.
_TRANSPORT_END = ipv6.HEADER_LENGTH + 4

#: Bit 0 of every byte of the longest (40-byte) flow key, and bit 0 of
#: the bytes at even distance from the key's end.
_BIT0 = int.from_bytes(b"\x01" * 40, "big")
_EVEN_BIT0 = int.from_bytes(b"\x00\x01" * 20, "big")


def flow_variant(src: int, dst: int, next_header: int, flow_label: int, packet: bytes) -> int:
    """Path variant in [0, VARIANTS) selected by the flow of ``packet``,
    whose fixed-header fields the caller has already read.

    The model: a load balancer takes FNV-1a-64 (offset
    ``0xCBF29CE484222325``, prime ``0x100000001B3``) over the flow key —
    source ‖ destination ‖ next header ‖ 3-byte flow label, then the
    first four transport bytes for TCP, UDP and ICMPv6 — and the low two
    bits of the hash pick the variant.

    Those two bits have a closed form.  One FNV step is ``h' = (h ^ b) *
    prime mod 2**64``; its low two bits depend only on the low two bits
    of ``h``, ``b`` and the prime, and ``prime % 4 == 3``, i.e. -1, so
    the step negates ``h ^ b`` modulo 4: ``h0' = h0 ^ b0`` and ``h1' =
    h1 ^ b1 ^ h0'``.  That is linear over GF(2).  Unrolled from ``offset
    % 4 == 1`` over a key of even length (36 or 40 bytes), bit 0 of the
    hash is 1 ^ the parity of bit 0 of every key byte, and bit 1 is the
    parity of bit 1 of every key byte ^ the parity of bit 0 of the bytes
    at even distance from the key's end (the running ``h0`` enters
    ``h1`` once per later step, so a byte's bit 0 survives only where
    that count is odd).  Each parity is a byte-sum of the masked key,
    taken with ``% 255`` (256 ≡ 1 modulo 255, and the sums are at most
    60).  Only bits 0-1 of each key byte steer ECMP in this model.
    """
    key = (((src << 128) | dst) << 32) | (next_header << 24) | flow_label
    if next_header in _HASHED_TRANSPORT and len(packet) >= _TRANSPORT_END:
        key = key << 32 | int.from_bytes(packet[ipv6.HEADER_LENGTH:_TRANSPORT_END], "big")
    low = 1 ^ (key & _BIT0) % 255 & 1
    high = (((key >> 1) & _BIT0) + (key & _EVEN_BIT0)) % 255 & 1
    return high << 1 | low
