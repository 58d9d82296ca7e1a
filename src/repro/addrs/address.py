"""IPv6 address primitives.

Addresses are represented as plain 128-bit Python integers throughout the
library: campaigns manipulate tens of millions of addresses and integer
keys are both the fastest and the most memory-frugal representation
available in pure Python.  This module provides parsing and formatting
(RFC 5952 canonical text form, including zero compression), byte
conversion, and the bit-level helpers the rest of the library builds on.
"""

from __future__ import annotations

from typing import List

#: Number of bits in an IPv6 address.
ADDRESS_BITS = 128

#: Largest representable address value (all-ones).
MAX_ADDRESS = (1 << ADDRESS_BITS) - 1

#: Number of bits in the interface identifier (low half) of an address.
IID_BITS = 64

#: Mask selecting the interface identifier bits.
IID_MASK = (1 << IID_BITS) - 1

#: Mask selecting the subnet-prefix (high 64) bits.
PREFIX_MASK = MAX_ADDRESS ^ IID_MASK


class AddressError(ValueError):
    """Raised when text cannot be parsed as an IPv6 address."""


def _parse_hex_group(group: str) -> int:
    if not group or len(group) > 4:
        raise AddressError("invalid group %r" % group)
    try:
        return int(group, 16)
    except ValueError:
        raise AddressError("invalid group %r" % group) from None


def _parse_ipv4_tail(text: str) -> List[int]:
    octets = text.split(".")
    if len(octets) != 4:
        raise AddressError("invalid embedded IPv4 %r" % text)
    values = []
    for octet in octets:
        if not octet.isdigit() or (len(octet) > 1 and octet[0] == "0"):
            raise AddressError("invalid embedded IPv4 octet %r" % octet)
        value = int(octet)
        if value > 255:
            raise AddressError("invalid embedded IPv4 octet %r" % octet)
        values.append(value)
    return [(values[0] << 8) | values[1], (values[2] << 8) | values[3]]


def parse(text: str) -> int:
    """Parse IPv6 text (any RFC 4291 form) into a 128-bit integer.

    Accepts full, zero-compressed (``::``), and IPv4-embedded forms.
    Raises :class:`AddressError` on malformed input.
    """
    text = text.strip()
    if not text:
        raise AddressError("empty address")
    if "::" in text:
        head_text, _, tail_text = text.partition("::")
        if "::" in tail_text:
            raise AddressError("multiple '::' in %r" % text)
        head = _parse_side(head_text, allow_ipv4=False)
        tail = _parse_side(tail_text)
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise AddressError("'::' compresses nothing in %r" % text)
        groups = head + [0] * missing + tail
    else:
        groups = _parse_side(text)
        if len(groups) != 8:
            raise AddressError("expected 8 groups in %r" % text)
    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def _parse_side(text: str, allow_ipv4: bool = True) -> List[int]:
    """Parse one side of a (possibly compressed) address into 16-bit groups."""
    if not text:
        return []
    parts = text.split(":")
    groups: List[int] = []
    for index, part in enumerate(parts):
        if "." in part:
            if not allow_ipv4 or index != len(parts) - 1:
                raise AddressError("embedded IPv4 must be last in %r" % text)
            groups.extend(_parse_ipv4_tail(part))
        else:
            groups.append(_parse_hex_group(part))
    return groups


def format_address(value: int) -> str:
    """Render a 128-bit integer in RFC 5952 canonical text form.

    Lower-case hex, longest run of two-or-more zero groups compressed
    (leftmost run wins ties).
    """
    if not 0 <= value <= MAX_ADDRESS:
        raise AddressError("address out of range: %r" % value)
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]

    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 1
            else:
                run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0

    if best_len < 2:
        return ":".join("%x" % group for group in groups)
    head = ":".join("%x" % group for group in groups[:best_start])
    tail = ":".join("%x" % group for group in groups[best_start + best_len:])
    return head + "::" + tail


def to_bytes(value: int) -> bytes:
    """Pack an address integer into 16 network-order bytes."""
    return value.to_bytes(16, "big")


def from_bytes(data: bytes) -> int:
    """Unpack 16 network-order bytes into an address integer."""
    if len(data) != 16:
        raise AddressError("expected 16 bytes, got %d" % len(data))
    return int.from_bytes(data, "big")


def subnet_prefix(value: int) -> int:
    """Return the high 64 bits (subnet prefix) with the IID zeroed."""
    return value & PREFIX_MASK


def interface_identifier(value: int) -> int:
    """Return the low 64 bits (interface identifier) of an address."""
    return value & IID_MASK


def with_iid(value: int, iid: int) -> int:
    """Combine an address's subnet prefix with the given 64-bit IID."""
    return (value & PREFIX_MASK) | (iid & IID_MASK)


def common_prefix_length(a: int, b: int) -> int:
    """Number of leading bits shared by two addresses (0..128)."""
    diff = a ^ b
    if diff == 0:
        return ADDRESS_BITS
    return ADDRESS_BITS - diff.bit_length()


#: The canonical low-byte interface identifier (``::1``).
LOWBYTE1_IID = 0x0000_0000_0000_0001

#: The fixed pseudo-random IID the paper uses for target synthesis
#: (``:1234:5678:1234:5678``, Section 3.1).
FIXED_IID = 0x1234_5678_1234_5678
