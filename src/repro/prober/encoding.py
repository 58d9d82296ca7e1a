"""Yarrp6 stateless probe encoding (Figure 4 of the paper).

Everything the prober will later need to interpret a response is carried
*inside the probe itself* and recovered from the ICMPv6 error quotation:

=========  ====  =====================================================
field      size  purpose
=========  ====  =====================================================
magic      4 B   discriminates Yarrp6 probes from stray ICMPv6
instance   1 B   discriminates concurrent prober instances
TTL        1 B   originating hop limit (the hop index of the response)
elapsed    4 B   µs send timestamp (truncated) for RTT computation
fudge      2 B   keeps the transport checksum constant per target
=========  ====  =====================================================

The TCP/UDP source port (or ICMPv6 identifier) carries an Internet
checksum of the target address, detecting en-route rewrites of the
destination; the destination port (or ICMPv6 sequence) is 80.  Keeping
every header byte — including the checksum, which deployed load
balancers hash for ICMPv6 — constant per target keeps all probes for a
target on a single ECMP path (Paris-traceroute behaviour for free).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from ..addrs import address
from ..packet import icmpv6, tcp, udp
from ..packet.checksum import (
    address_checksum,
    checksum_fudge,
    ones_complement_sum,
    pseudo_header_sum,
)
from ..packet.ipv6 import HEADER, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP, VERSION, IPv6Header

#: "yp6\0" — the Yarrp6 payload magic.
MAGIC = 0x79503600

#: Fixed destination port / ICMPv6 sequence number (Figure 4).
DEST_PORT = 80

#: Payload length: magic + instance + TTL + elapsed + fudge.
PAYLOAD_LENGTH = 12

#: The constant one's-complement sum every probe's checksummed region is
#: steered to via the fudge field; the emitted checksum is its complement.
TARGET_SUM = 0xBEEF

#: The payload ahead of the fudge: magic, instance, TTL, elapsed.
PAYLOAD_HEAD = struct.Struct("!IBBI")

#: Protocol name -> next-header value.
PROTOCOLS = {"icmp6": PROTO_ICMPV6, "udp": PROTO_UDP, "tcp": PROTO_TCP}

#: Transport header lengths by next-header value.
_TRANSPORT_LENGTH = {PROTO_ICMPV6: 8, PROTO_UDP: 8, PROTO_TCP: 20}

#: Byte offset of the transport checksum field within the transport
#: header, per protocol.
_CHECKSUM_OFFSET = {PROTO_ICMPV6: 2, PROTO_UDP: 6, PROTO_TCP: 16}

#: Byte offset of the field carrying the target checksum (TCP/UDP source
#: port, ICMPv6 identifier) within the transport header.
_SPORT_OFFSET = {PROTO_ICMPV6: 4, PROTO_UDP: 0, PROTO_TCP: 0}


class DecodeError(ValueError):
    """Raised when a quotation cannot be interpreted as a Yarrp6 probe."""


class DecodedProbe:
    """State recovered from a quoted probe."""

    __slots__ = ("target", "ttl", "elapsed", "instance", "protocol", "target_modified")

    def __init__(
        self,
        target: int,
        ttl: int,
        elapsed: int,
        instance: int,
        protocol: int,
        target_modified: bool,
    ) -> None:
        self.target = target
        self.ttl = ttl
        self.elapsed = elapsed
        self.instance = instance
        self.protocol = protocol
        #: True when the quoted destination fails its checksum — some
        #: middlebox rewrote the address en route.
        self.target_modified = target_modified

    def __repr__(self) -> str:
        return "DecodedProbe(%s, ttl=%d%s)" % (
            address.format_address(self.target),
            self.ttl,
            ", MODIFIED" if self.target_modified else "",
        )


def _payload_with_fudge(
    src: int,
    target: int,
    proto: int,
    fixed_header: bytes,
    instance: int,
    ttl: int,
    elapsed: int,
) -> bytes:
    """The 12-byte Yarrp6 payload, fudged so that the transport checksum
    over (pseudo-header + fixed transport header + payload) lands on
    ``TARGET_SUM``."""
    head = PAYLOAD_HEAD.pack(MAGIC, instance & 0xFF, ttl & 0xFF, elapsed & 0xFFFFFFFF)
    length = len(fixed_header) + PAYLOAD_LENGTH
    base = ones_complement_sum(
        fixed_header + head, pseudo_header_sum(src, target, length, proto)
    )
    fudge = checksum_fudge(base, TARGET_SUM)
    return head + fudge.to_bytes(2, "big")


def encode_probe(
    src: int,
    target: int,
    ttl: int,
    elapsed: int,
    instance: int = 1,
    protocol: str = "icmp6",
) -> bytes:
    """Build complete probe packet bytes for (target, TTL).

    The checksum is fudged to ``TARGET_SUM`` for every probe, so the
    headers an ECMP load balancer hashes stay constant per target and
    every probe toward it follows one path (Paris-traceroute behaviour).
    """
    proto = PROTOCOLS.get(protocol)
    if proto is None:
        raise ValueError("unknown protocol %r" % protocol)
    sport = address_checksum(target)

    # The transport header with a zero checksum field.
    if proto == PROTO_ICMPV6:
        fixed = struct.pack(
            "!BBHHH", icmpv6.TYPE_ECHO_REQUEST, 0, 0, sport, DEST_PORT
        )
    elif proto == PROTO_UDP:
        length = udp.HEADER_LENGTH + PAYLOAD_LENGTH
        fixed = struct.pack("!HHHH", sport, DEST_PORT, length, 0)
    else:  # TCP SYN
        fixed = tcp.TCPHeader(sport, DEST_PORT, seq=0, flags=tcp.FLAG_SYN).pack()

    payload = _payload_with_fudge(src, target, proto, fixed, instance, ttl, elapsed)
    checksum_at = _CHECKSUM_OFFSET[proto]
    segment = (
        fixed[:checksum_at]
        + ((~TARGET_SUM) & 0xFFFF).to_bytes(2, "big")
        + fixed[checksum_at + 2 :]
        + payload
    )
    return IPv6Header(src, target, len(segment), proto, hop_limit=ttl).pack() + segment


#: IPv6 fixed-header size; the transport header starts here.
_IPV6_HEADER = 40


class ProbeTemplate:
    """Preallocated probe packet with in-place per-probe field patching.

    Everything that is constant across one prober's emissions — the IPv6
    header scaffold, transport header, magic, instance, *and the final
    transport checksum* (the complement of ``TARGET_SUM``, which the
    fudge field steers every probe to) — is rendered once.  Per probe,
    :meth:`encode_into` rewrites only the six variable field groups of a
    reusable ``bytearray``: hop limit, destination address,
    target-checksum port, payload TTL, elapsed timestamp, and the fudge
    word, recomputed incrementally from a precomputed one's-complement
    base sum instead of re-summing the packet.  Output bytes are identical to
    :func:`encode_probe`; the equivalence suite pins this per protocol.
    """

    __slots__ = (
        "src",
        "instance",
        "protocol",
        "size",
        "_template",
        "_base_sum",
        "_sport_at",
        "_payload_at",
    )

    def __init__(
        self,
        src: int,
        instance: int = 1,
        protocol: str = "icmp6",
    ) -> None:
        proto = PROTOCOLS.get(protocol)
        if proto is None:
            raise ValueError("unknown protocol %r" % protocol)
        self.src = src
        self.instance = instance
        self.protocol = protocol
        transport_length = _TRANSPORT_LENGTH[proto]
        payload_at = _IPV6_HEADER + transport_length
        self._sport_at = _IPV6_HEADER + _SPORT_OFFSET[proto]
        self._payload_at = payload_at

        # Render the scaffold from the reference encoder with every
        # variable field at zero (target 0 ⇒ dst bytes and address words
        # all zero; ttl/elapsed 0), then zero the two fields encode_probe
        # derived *from* the target (sport, fudge) so the template is
        # canonical and correctness never depends on its initial values.
        scaffold = bytearray(encode_probe(src, 0, 0, 0, instance=instance, protocol=protocol))
        scaffold[self._sport_at : self._sport_at + 2] = b"\x00\x00"
        scaffold[payload_at + 10 : payload_at + 12] = b"\x00\x00"
        self._template = bytes(scaffold)
        self.size = len(scaffold)

        # One's-complement base over the checksummed region with variable
        # fields zeroed: pseudo-header (dst=0) + transport header (sport
        # and checksum zeroed) + payload head (ttl/elapsed zeroed).
        fixed = bytearray(scaffold[_IPV6_HEADER:payload_at])
        checksum_at = _CHECKSUM_OFFSET[proto]
        fixed[checksum_at : checksum_at + 2] = b"\x00\x00"
        self._base_sum = ones_complement_sum(
            bytes(fixed) + scaffold[payload_at : payload_at + 10],
            pseudo_header_sum(src, 0, transport_length + PAYLOAD_LENGTH, proto),
        )

    def new_buffer(self) -> bytearray:
        """A fresh mutable packet buffer initialized from the template."""
        return bytearray(self._template)

    def encode_into(
        self, buffer: bytearray, target: int, ttl: int, elapsed: int
    ) -> None:
        """Patch ``buffer`` in place into the probe for (target, TTL).

        ``buffer`` must come from :meth:`new_buffer` (or a previous call
        on the same template); only the variable fields are written, so
        reusing one buffer across a whole block amortizes allocation.
        """
        elapsed &= 0xFFFFFFFF
        buffer[7] = ttl
        buffer[24:40] = target.to_bytes(16, "big")
        # The address integer is its own unfolded word sum: its checksum
        # is address_checksum's, folded inline (fold_sum).
        sport = ~((target - 1) % 0xFFFF + 1) & 0xFFFF or 0xFFFF
        sport_at = self._sport_at
        buffer[sport_at] = sport >> 8
        buffer[sport_at + 1] = sport & 0xFF
        payload_at = self._payload_at
        buffer[payload_at + 5] = ttl & 0xFF
        buffer[payload_at + 6 : payload_at + 10] = elapsed.to_bytes(4, "big")
        total = (
            self._base_sum + target + sport + (ttl & 0xFF) + (elapsed >> 16) + (elapsed & 0xFFFF)
        )
        # The base sum covers the magic, so the total is never zero and
        # folds with one modulo; then checksum_fudge, inline.
        fudge = TARGET_SUM - ((total - 1) % 0xFFFF + 1)
        if fudge <= 0:
            fudge += 0xFFFF
        buffer[payload_at + 10] = fudge >> 8
        buffer[payload_at + 11] = fudge & 0xFF


def decode_at(
    data: bytes, offset: int, instance: Optional[int]
) -> Tuple[int, int, int, int, int, bool]:
    """Recover Yarrp6 probe state from the ICMPv6 error quotation that
    starts ``offset`` bytes into ``data``, reading it in place: ``(target,
    ttl, elapsed, instance, protocol, target_modified)``, the fields of
    :class:`DecodedProbe` in its order.

    Raises :class:`DecodeError` for non-Yarrp6 or hopelessly truncated
    quotations (distinguishing "someone else's packet" from "our packet,
    mangled" via the magic and the target checksum respectively).  The
    one decoder: :func:`decode_quotation` is it at offset 0.
    """
    quoted = len(data) - offset - _IPV6_HEADER
    if quoted < 0:
        raise DecodeError(
            "unparseable quotation: short IPv6 header: %d < %d bytes"
            % (max(quoted + _IPV6_HEADER, 0), _IPV6_HEADER)
        )
    first_word, _, protocol, _, _, _, dst_high, dst_low = HEADER.unpack_from(data, offset)
    if first_word >> 28 != VERSION:
        raise DecodeError("unparseable quotation: not IPv6 (version %d)" % (first_word >> 28))
    transport_length = _TRANSPORT_LENGTH.get(protocol)
    if transport_length is None:
        raise DecodeError("unexpected protocol %d in quotation" % protocol)
    if quoted < transport_length + PAYLOAD_LENGTH - 2:
        # The fudge bytes are expendable; everything before them is not.
        raise DecodeError("quotation truncated to %d bytes of transport" % quoted)
    transport_at = offset + _IPV6_HEADER
    magic, probe_instance, ttl, elapsed = PAYLOAD_HEAD.unpack_from(
        data, transport_at + transport_length
    )
    if magic != MAGIC:
        raise DecodeError("bad magic %08x" % magic)
    if instance is not None and probe_instance != instance:
        raise DecodeError(
            "instance mismatch: probe %d, ours %d" % (probe_instance, instance)
        )
    target = (dst_high << 64) | dst_low
    # Source port / ICMPv6 identifier carries the target checksum
    # (address_checksum, folded inline as encode_into does).
    sport_at = transport_at + _SPORT_OFFSET[protocol]
    return (
        target,
        ttl,
        elapsed,
        probe_instance,
        protocol,
        (data[sport_at] << 8 | data[sport_at + 1])
        != (~((target - 1) % 0xFFFF + 1) & 0xFFFF or 0xFFFF),
    )


def decode_quotation(quotation: bytes, instance: Optional[int] = None) -> DecodedProbe:
    """Recover Yarrp6 probe state from an ICMPv6 error quotation: the
    :class:`DecodedProbe` of :func:`decode_at` at offset 0."""
    return DecodedProbe(*decode_at(quotation, 0, instance))


def rtt_from(elapsed: int, now: int) -> int:
    """Round-trip time from a 32-bit truncated send timestamp."""
    return (now - elapsed) & 0xFFFFFFFF
