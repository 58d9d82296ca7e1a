"""Address assignment: router interface IIDs and the draws they share
with host numbering.

Interface numbering follows each AS's :class:`~repro.netsim.topology.
AddressPlan`; each host rolls its technique (privacy, EUI-64, low-byte
server) against its LAN's mix.  The mix of plans across the internet is
what makes Table 1's and Table 7's IID class distributions (lowbyte vs
EUI-64 vs randomized) come out.

:func:`draw_between` and :func:`eui64_draw` are the draws the rest of
the build makes one at a time.  The world build's inner loop,
``_Builder.add_leaves`` in :mod:`repro.netsim.build`, spells the same
draws out over a run of leaf /64s with no call per draw; the host rules
(the privacy-address IID, the :data:`LOWBYTE_SERVER_RANGE` server) live
only there.
"""

from __future__ import annotations

import random

from ..addrs.iid import eui64_iid
from ..addrs.prefix import Prefix
from .topology import AddressPlan

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
