"""Speedtrap-style IPv6 alias resolution probing (Luckie et al. 2013).

The paper's stated next step (Section 7.2): feed discovered interface
addresses into Internet-scale alias resolution to build *router-level*
topology.  Speedtrap's insight is that IPv6 nodes keep one fragment
Identification counter per router, shared across interfaces.  The
prober:

1. sends each candidate a Packet Too Big reporting an MTU below 1280,
   putting the node into RFC 6946 *atomic fragment* mode toward us;
2. samples each candidate's counter over several interleaved rounds by
   sending Echo Requests and reading the Identification from the atomic
   Fragment header on the replies.

The samples — (address, virtual time, identification) — go to
:mod:`repro.analysis.alias` for monotonic-sequence clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.engine import pps_interval
from ..netsim.internet import Internet
from ..packet import fragment, icmpv6, ipv6
from ..packet.checksum import address_checksum
from ..packet.ipv6 import PROTO_ICMPV6, IPv6Header

#: The under-minimum MTU reported to force atomic fragments.
LURE_MTU = 1000


@dataclass
class SpeedtrapConfig:
    """Sampling parameters."""

    rounds: int = 5
    #: Probe rate; alias sampling is low-volume, politeness is cheap.
    pps: float = 500.0
    #: Virtual pause between rounds — interleaving across time is what
    #: gives the monotonic-sequence test its power.
    round_gap_us: int = 200_000

    def __post_init__(self) -> None:
        if self.round_gap_us < 0:
            raise ValueError("negative round_gap_us: %r" % self.round_gap_us)


class IdSample:
    """One fragment-Identification observation."""

    __slots__ = ("address", "time_us", "identification", "round_index")

    def __init__(self, address: int, time_us: int, identification: int, round_index: int) -> None:
        self.address = address
        self.time_us = time_us
        self.identification = identification
        self.round_index = round_index

    def __repr__(self) -> str:
        return "IdSample(%x @%dus id=%d)" % (
            self.address,
            self.time_us,
            self.identification,
        )


class Speedtrap:
    """The sampling state machine (drive it with :func:`run_speedtrap`)."""

    def __init__(self, source: int, candidates: Sequence[int], config: Optional[SpeedtrapConfig] = None) -> None:
        self.source = source
        self.candidates = sorted(set(candidates))
        self.config = config or SpeedtrapConfig()
        if not self.candidates:
            raise ValueError("no candidate addresses")
        self.samples: Dict[int, List[IdSample]] = {}
        self.sent = 0
        self.unresponsive: Dict[int, int] = {}

    # -- packet builders -------------------------------------------------
    def lure_packet(self, candidate: int) -> bytes:
        """The Packet Too Big that plants atomic-fragment state."""
        quoted = ipv6.build_packet(
            IPv6Header(candidate, self.source, 0, PROTO_ICMPV6),
            icmpv6.echo_reply(1, 1).pack(candidate, self.source),
        )
        message = icmpv6.ICMPv6Message(
            icmpv6.TYPE_PACKET_TOO_BIG, 0, LURE_MTU, quoted[: icmpv6.MAX_QUOTATION]
        )
        self.sent += 1
        return ipv6.build_packet(
            IPv6Header(self.source, candidate, 0, PROTO_ICMPV6, hop_limit=64),
            message.pack(self.source, candidate),
        )

    def sample_packet(self, candidate: int, round_index: int) -> bytes:
        echo = icmpv6.echo_request(
            address_checksum(candidate), round_index, b"speedtrap"
        )
        self.sent += 1
        return ipv6.build_packet(
            IPv6Header(self.source, candidate, 0, PROTO_ICMPV6, hop_limit=64),
            echo.pack(self.source, candidate),
        )

    # -- reception --------------------------------------------------------
    def receive(self, data: bytes, now: int, round_index: int) -> Optional[IdSample]:
        try:
            header, payload = ipv6.split_packet(data)
        except ipv6.PacketError:
            return None
        extracted = fragment.extract_identification(header.next_header, payload)
        if extracted is None:
            return None
        identification, inner_proto, inner = extracted
        if inner_proto != PROTO_ICMPV6:
            return None
        try:
            message = icmpv6.ICMPv6Message.unpack(inner)
        except ipv6.PacketError:
            return None
        if not message.is_echo_reply:
            return None
        sample = IdSample(header.src, now, identification, round_index)
        self.samples.setdefault(header.src, []).append(sample)
        return sample


def run_speedtrap(
    internet: Internet,
    vantage_name: str,
    candidates: Sequence[int],
    config: Optional[SpeedtrapConfig] = None,
) -> Speedtrap:
    """Run the full lure + sampling schedule in virtual time."""
    config = config or SpeedtrapConfig()
    vantage = internet.vantage(vantage_name)
    machine = Speedtrap(vantage.address, candidates, config)
    interval = pps_interval(config.pps)
    # The replies are held and handed on before each send in (arrival,
    # send order) order, so every candidate's samples are in arrival order.
    held: List[Tuple[int, int, bytes, int]] = []

    def hear(until: int) -> None:
        while held and held[0][0] <= until:
            arrival, _, data, round_index = heappop(held)
            machine.receive(data, arrival, round_index)

    # Round -1 is the lure round; every sampling round waits out the gap.
    now = 0
    for round_index in range(-1, config.rounds):
        if round_index >= 0:
            now += config.round_gap_us
        for candidate in machine.candidates:
            hear(now)
            if round_index < 0:
                packet = machine.lure_packet(candidate)
            else:
                packet = machine.sample_packet(candidate, round_index)
            reply = internet.answer(packet, now)
            if reply is not None:
                heappush(held, (reply[0], machine.sent, reply[1], round_index))
            now += interval
    hear(max([now] + [arrival for arrival, _, _, _ in held]))

    for candidate in machine.candidates:
        if candidate not in machine.samples:
            machine.unresponsive[candidate] = config.rounds
    return machine
