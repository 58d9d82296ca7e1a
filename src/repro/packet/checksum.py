"""Internet checksum (RFC 1071) and the IPv6 pseudo-header.

Every upper-layer protocol carried over IPv6 — TCP, UDP and ICMPv6 —
computes its checksum over a pseudo-header containing the source and
destination addresses, the upper-layer packet length and the next-header
value (RFC 8200 Section 8.1), followed by the transport header and
payload.  Yarrp6 additionally exploits the algebra of the one's-complement
sum: a 16-bit "fudge" field in its payload is chosen so that the transport
checksum stays constant across probes whose payload varies (Section 4.1,
Figure 4 of the paper).
"""

from __future__ import annotations

from ..addrs import address
from ..addrs.address import MAX_ADDRESS


def fold_sum(total: int) -> int:
    """Fold a raw one's-complement accumulator of any width to 16 bits.

    End-around-carry folding leaves a value unchanged modulo ``0xFFFF``
    (``2**16 ≡ 1``) and never produces zero from a nonzero total, so the
    fold is one modulo: 0 stays 0, every other multiple of ``0xFFFF``
    reads ``0xFFFF``.  Callers accumulate plain integers — whole words,
    whole addresses — and fold once.
    """
    if total == 0:
        return 0
    return (total - 1) % 0xFFFF + 1


def ones_complement_sum(data: bytes, initial: int = 0) -> int:
    """One's-complement 16-bit sum over ``data`` (odd tail zero-padded).

    The big-endian integer value of ``data`` is congruent to the sum of
    its 16-bit words modulo ``0xFFFF`` and zero exactly when they all
    are, so the whole buffer is summed by one ``int.from_bytes``.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    return fold_sum(total + initial)


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """RFC 1071 Internet checksum: complement of the one's-complement sum."""
    return ~ones_complement_sum(data, initial) & 0xFFFF


def pseudo_header(src: int, dst: int, upper_length: int, next_header: int) -> bytes:
    """IPv6 pseudo-header bytes for upper-layer checksumming (RFC 8200)."""
    return (
        address.to_bytes(src)
        + address.to_bytes(dst)
        + upper_length.to_bytes(4, "big")
        + b"\x00\x00\x00"
        + bytes([next_header & 0xFF])
    )


def pseudo_header_sum(
    src: int, dst: int, upper_length: int, next_header: int
) -> int:
    """Unfolded one's-complement sum of :func:`pseudo_header`'s bytes.

    A field's integer value is congruent to the sum of its 16-bit words
    modulo ``0xFFFF``, so the fields are added as they are; pass the
    result as ``initial`` or to :func:`fold_sum`.  Raises
    ``OverflowError`` for an address that has no 16-byte form, as
    :func:`pseudo_header` does.
    """
    if not (0 <= src <= MAX_ADDRESS and 0 <= dst <= MAX_ADDRESS):
        raise OverflowError(
            "address out of range: src %#x, dst %#x" % (src, dst)
        )
    return src + dst + upper_length + (next_header & 0xFF)


def transport_checksum(
    src: int, dst: int, next_header: int, segment: bytes
) -> int:
    """Checksum of a transport segment including the IPv6 pseudo-header.

    ``segment`` must have its own checksum field zeroed.
    """
    header = pseudo_header_sum(src, dst, len(segment), next_header)
    return internet_checksum(segment, header)


def verify_transport_checksum(
    src: int, dst: int, next_header: int, segment: bytes
) -> bool:
    """True when a received segment's embedded checksum validates.

    Computing the checksum over a segment that *includes* a correct
    checksum field yields zero.
    """
    header = pseudo_header_sum(src, dst, len(segment), next_header)
    return internet_checksum(segment, header) == 0


def checksum_fudge(segment_without_fudge_sum: int, desired: int) -> int:
    """Fudge value making a segment's one's-complement sum hit ``desired``.

    Given the one's-complement sum of everything else covered by the
    checksum (pseudo-header + segment with the fudge field zeroed), return
    the 16-bit value to place in the fudge field so the total sum equals
    ``desired`` — and therefore the final checksum equals
    ``~desired & 0xffff`` regardless of the varying payload contents.
    """
    current = segment_without_fudge_sum & 0xFFFF
    desired &= 0xFFFF
    # One's complement subtraction: desired = current (+) fudge.
    fudge = desired - current
    if fudge <= 0:
        # In one's-complement arithmetic 0xFFFF acts as zero; adjust into
        # the representable range.
        fudge += 0xFFFF
    return fudge & 0xFFFF


def address_checksum(value: int) -> int:
    """16-bit Internet checksum over an IPv6 address.

    Yarrp6 places this in the TCP/UDP source port or ICMPv6 identifier to
    detect in-path rewrites of the probe's destination address
    (Section 4.1).  Values 0 is avoided since port 0 is pathological.
    An address integer is its own unfolded word sum (see
    :func:`fold_sum`), so no byte form is needed; a value outside 128
    bits still raises ``OverflowError``.
    """
    if not 0 <= value <= MAX_ADDRESS:
        raise OverflowError("address out of range: %#x" % value)
    return ~fold_sum(value) & 0xFFFF or 0xFFFF
