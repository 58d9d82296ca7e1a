"""Address assignment: router interface and host IID generation.

Interface numbering follows each AS's :class:`~repro.netsim.topology.
AddressPlan`; host numbering follows per-host :class:`HostKind`.  The mix
of plans across the internet is what makes Table 1's and Table 7's IID
class distributions (lowbyte vs EUI-64 vs randomized) come out.

Every IID rule lives here once, as a draw from the caller's generator:
:func:`eui64_draw`, :func:`privacy_draw` and the low-byte server range.
:func:`leaf_hosts` draws a whole LAN through them in one call (the world
build's inner loop); :func:`host_iid` and :func:`interface_iid` are the
one-at-a-time spellings of the same pieces.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..addrs.iid import eui64_iid
from ..addrs.prefix import Prefix
from .topology import AddressPlan, HostKind

#: Per-manufacturer OUIs for CPE fleets: two dominant vendors, mirroring
#: the paper's finding that 59% of EUI-64 router addresses came from just
#: two manufacturers.
CPE_OUIS = (0x00259E, 0xF4CA24, 0x3C9066, 0x8C59C3)

#: Statically numbered servers sit at ::1 … ::200.
LOWBYTE_SERVER_RANGE = (1, 0x200)


def draw_between(rng: random.Random, low: int, high: int) -> int:
    """``rng.randint(low, high)`` for integers ``low <= high`` the caller
    checked once: the same ``getrandbits`` rejection loop ``random.py``
    runs (so the same draws), without re-deriving per draw that the
    bounds are integers and ordered."""
    width = high - low + 1
    bits = width.bit_length()
    value = rng.getrandbits(bits)
    while value >= width:
        value = rng.getrandbits(bits)
    return low + value


def eui64_draw(rng: random.Random, oui: int) -> int:
    """An EUI-64 IID of the vendor ``oui`` (24 bits): the NIC-specific
    half is three octet draws, most significant first."""
    getrandbits = rng.getrandbits
    return eui64_iid(oui, (getrandbits(8) << 16) | (getrandbits(8) << 8) | getrandbits(8))


def privacy_draw(rng: random.Random) -> int:
    """An RFC 4941 temporary-address IID: uniformly random, with the
    ff:fe EUI-64 marker position cleared so classification stays honest."""
    iid = rng.getrandbits(64)
    if (iid >> 24) & 0xFFFF == 0xFFFE:
        iid ^= 1 << 30
    return iid or 1


def interface_iid(plan: AddressPlan, position: int, rng: random.Random, oui: int = 0) -> int:
    """IID for the ``position``-th interface on a point-to-point /64.

    * lowbyte — ::1, ::2, … (the very common operational practice);
    * random  — an opaque 64-bit identifier;
    * eui64   — embedded-MAC identifier from the AS's CPE vendor.
    """
    if plan is AddressPlan.LOWBYTE:
        return position + 1
    if plan is AddressPlan.RANDOM:
        return rng.getrandbits(64) or 1
    if plan is AddressPlan.EUI64:
        return eui64_draw(rng, oui or CPE_OUIS[0])
    raise ValueError("unknown plan %r" % plan)


def interface_address(
    link_prefix: Prefix, plan: AddressPlan, position: int, rng: random.Random, oui: int = 0
) -> int:
    """Full interface address on a /64 link prefix."""
    return link_prefix.base | interface_iid(plan, position, rng, oui)


def host_iid(kind: HostKind, rng: random.Random, oui: int = 0) -> int:
    """IID for an end host of the given kind."""
    if kind is HostKind.SLAAC_PRIVACY:
        return privacy_draw(rng)
    if kind is HostKind.EUI64:
        return eui64_draw(rng, oui or CPE_OUIS[1])
    if kind is HostKind.LOWBYTE_SERVER:
        return draw_between(rng, *LOWBYTE_SERVER_RANGE)
    raise ValueError("unknown host kind %r" % kind)


def leaf_hosts(
    rng: random.Random,
    count: int,
    privacy_fraction: float,
    eui64_fraction: float,
    oui: int,
    www: bool,
) -> Tuple[List[int], List[int]]:
    """``(host IIDs, WWW-client IIDs)`` of one LAN with ``count`` hosts.

    Each host rolls its address technique against the deployment's mix
    (privacy below ``privacy_fraction``, EUI-64 of vendor ``oui`` in the
    next ``eui64_fraction``, a low-byte server otherwise), then draws
    its IID.  On a ``www`` LAN the privacy-addressed hosts — the ones
    that surf — are also the CDN-visible clients.
    """
    random = rng.random
    eui64_below = privacy_fraction + eui64_fraction
    low, high = LOWBYTE_SERVER_RANGE
    hosts: List[int] = []
    clients: List[int] = []
    for _ in range(count):
        roll = random()
        if roll < privacy_fraction:
            iid = privacy_draw(rng)
            if www:
                clients.append(iid)
        elif roll < eui64_below:
            iid = eui64_draw(rng, oui)
        else:
            iid = draw_between(rng, low, high)
        hosts.append(iid)
    return hosts, clients
