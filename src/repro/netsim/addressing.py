"""Address assignment: router interface IIDs and the draws they share
with host numbering.

Interface numbering follows each AS's :class:`~repro.netsim.topology.
AddressPlan`; each host rolls its technique (privacy, EUI-64, low-byte
server) against its LAN's mix.  The mix of plans across the internet is
what makes Table 1's and Table 7's IID class distributions (lowbyte vs
EUI-64 vs randomized) come out.

:func:`draw_between` is the draw the rest of the build makes one at a
time.  The world build's inner loop, ``_Builder.add_leaves`` in
:mod:`repro.netsim.build`, spells it out over a run of leaf /64s with no
call per draw; the EUI-64 IIDs (gateways on residential LANs, SLAAC
hosts) and the host rules (the privacy-address IID, the
:data:`LOWBYTE_SERVER_RANGE` server) live only there.
"""

from __future__ import annotations

import random

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


def interface_iid(plan: AddressPlan, position: int, rng: random.Random) -> int:
    """IID for the ``position``-th interface on a point-to-point /64.

    * lowbyte — ::1, ::2, … (the very common operational practice);
    * random  — an opaque 64-bit identifier.

    Infrastructure is never EUI-64 numbered: an EUI-64 AS numbers its
    own links low-byte (``_Builder.iface_on_link``).
    """
    if plan is AddressPlan.LOWBYTE:
        return position + 1
    if plan is AddressPlan.RANDOM:
        return rng.getrandbits(64) or 1
    raise ValueError("no infrastructure numbering for plan %r" % plan)


def interface_address(
    link_prefix: Prefix, plan: AddressPlan, position: int, rng: random.Random
) -> int:
    """Full interface address on a /64 link prefix."""
    return link_prefix.base | interface_iid(plan, position, rng)
