"""Interface-identifier (IID) classification, after the ``addr6`` tool.

The paper classifies seed and result addresses by the apparent structure
of their low 64 bits (Table 1, Table 7):

* ``EUI64``    — modified EUI-64 with an embedded IEEE MAC address,
                 recognisable by the ``ff:fe`` marker in the middle of the
                 IID (RFC 4291 Appendix A);
* ``LOWBYTE``  — a run of zeroes followed only by a small value in the low
                 byte(s), e.g. ``::1`` — typical manually assigned router
                 addresses;
* ``EMBEDDED_IPV4`` — the IID encodes the IPv4 dotted quad of the node;
* ``RANDOMIZED``    — no discernible pattern (SLAAC privacy addresses and
                 anything unrecognised).

The classifier is deliberately heuristic, mirroring addr6's behaviour and
precedence.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Dict, Iterable, Tuple

from .address import interface_identifier


class IIDClass(enum.Enum):
    """Structural class of an interface identifier."""

    EUI64 = "eui64"
    LOWBYTE = "lowbyte"
    EMBEDDED_IPV4 = "embedded-ipv4"
    RANDOMIZED = "randomized"


#: Threshold below which a zero-run IID counts as "low byte".  addr6 treats
#: IIDs whose upper bytes are zero and low value small as lowbyte; we admit
#: the low 16 bits.
LOWBYTE_LIMIT = 1 << 16


def classify_iid(iid: int) -> IIDClass:
    """Classify a 64-bit interface identifier."""
    iid &= (1 << 64) - 1
    # EUI-64: bytes 3..4 of the IID are 0xff, 0xfe.
    if (iid >> 24) & 0xFFFF == 0xFFFE:
        return IIDClass.EUI64
    if 0 <= iid < LOWBYTE_LIMIT:
        return IIDClass.LOWBYTE
    if _looks_embedded_ipv4(iid):
        return IIDClass.EMBEDDED_IPV4
    return IIDClass.RANDOMIZED


def classify_address(value: int) -> IIDClass:
    """Classify the IID of a full 128-bit address."""
    return classify_iid(interface_identifier(value))


def _looks_embedded_ipv4(iid: int) -> bool:
    """Heuristic for IPv4-embedded IIDs: high 32 bits zero and the low 32
    bits reading as a plausible dotted quad when taken per-nybble-pair
    (e.g. ``::c0a8:0001`` or the BCD style ``::192:168:0:1``)."""
    if iid >> 32 == 0:
        return iid >= LOWBYTE_LIMIT
    # BCD style: each 16-bit group is a decimal 0..255 rendered in hex.
    groups = [(iid >> shift) & 0xFFFF for shift in (48, 32, 16, 0)]
    for group in groups:
        text = "%x" % group
        if not text.isdigit() or int(text) > 255:
            return False
    return True


def eui64_mac(iid: int) -> Tuple[int, ...]:
    """Recover the embedded MAC octets from an EUI-64 IID.

    The universal/local bit (bit 6 of the first octet) is flipped back per
    RFC 4291.  Raises ValueError for non-EUI-64 IIDs.
    """
    if classify_iid(iid) is not IIDClass.EUI64:
        raise ValueError("IID %x is not EUI-64" % iid)
    octets = [(iid >> shift) & 0xFF for shift in range(56, -8, -8)]
    mac = [octets[0] ^ 0x02, octets[1], octets[2], octets[5], octets[6], octets[7]]
    return tuple(mac)


def eui64_oui(iid: int) -> int:
    """The 24-bit Organizationally Unique Identifier of an EUI-64 IID,
    identifying the device manufacturer (Section 5.1, Section 7.1)."""
    mac = eui64_mac(iid)
    return (mac[0] << 16) | (mac[1] << 8) | mac[2]


def eui64_iid(oui: int, nic: int) -> int:
    """The modified EUI-64 IID of a MAC given as its 24-bit OUI and
    24-bit NIC-specific half: universal/local bit flipped, ``ff:fe``
    between the halves (RFC 4291 Appendix A).  Unchecked — for halves
    that are 24 bits by construction."""
    return ((oui ^ 0x020000) << 40) | 0xFFFE000000 | nic


def make_eui64_iid(mac: Tuple[int, ...]) -> int:
    """Forge a modified EUI-64 IID from six MAC octets (for simulation)."""
    if len(mac) != 6 or any(not 0 <= octet <= 0xFF for octet in mac):
        raise ValueError("MAC must be six octets")
    return eui64_iid(
        (mac[0] << 16) | (mac[1] << 8) | mac[2], (mac[3] << 16) | (mac[4] << 8) | mac[5]
    )


def classify_set(addresses: Iterable[int]) -> Dict[IIDClass, int]:
    """Count IID classes across a set of addresses (Table 1 row)."""
    counts: Counter = Counter(classify_address(value) for value in addresses)
    return {cls: counts.get(cls, 0) for cls in IIDClass}
