"""Path MTU discovery over the simulated internet.

Transition mechanisms riddle the IPv6 Internet with sub-1500 tunnels
(6to4 relays run at the 1280 floor; 6in4 links at 1480), and the paper's
hitlists carry visible 6to4 populations (Table 5).  Classic PMTUD
(RFC 8201) maps those bottlenecks: send a full-size probe, read the MTU
from the Packet Too Big reply, retry at that size, repeat until the
destination (or its LAN) answers.

Results annotate targets with their path MTU — a topology attribute the
interface-discovery pipeline doesn't capture, and a direct tell for
tunneled paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..netsim.engine import pps_interval
from ..netsim.internet import Internet
from ..packet import icmpv6, ipv6
from ..packet.checksum import address_checksum
from ..packet.ipv6 import PROTO_ICMPV6, IPv6Header


@dataclass
class PMTUDConfig:
    start_mtu: int = 1500
    #: RFC 8200: no IPv6 link may have an MTU below this.
    floor: int = 1280
    max_rounds: int = 8
    pps: float = 1000.0


class PMTUDResult:
    """Per-target discovery outcome."""

    __slots__ = ("path_mtu", "bottleneck_hop", "rounds", "confirmed")

    def __init__(self) -> None:
        #: Largest size known to traverse the path (None: nothing did).
        self.path_mtu: Optional[int] = None
        #: Source address of the last Packet Too Big, if any.
        self.bottleneck_hop: Optional[int] = None
        self.rounds = 0
        #: True when the destination answered at ``path_mtu``.
        self.confirmed = False


def _padded_probe(source: int, target: int, size: int) -> bytes:
    """An Echo Request padded so the whole IPv6 packet is ``size`` bytes."""
    padding = max(0, size - 40 - 8)
    echo = icmpv6.echo_request(address_checksum(target), 0, b"\x00" * padding)
    return ipv6.build_packet(
        IPv6Header(source, target, 0, PROTO_ICMPV6, hop_limit=64),
        echo.pack(source, target),
    )


def _outcome(data: bytes) -> Optional[Tuple[str, int, int]]:
    """What a reply says: ``(kind, reported MTU, sender)``, or None."""
    try:
        header, payload = ipv6.split_packet(data)
        message = icmpv6.ICMPv6Message.unpack(payload)
    except ipv6.PacketError:
        return None
    if message.msg_type == icmpv6.TYPE_PACKET_TOO_BIG:
        return ("ptb", message.word, header.src)
    if message.is_echo_reply:
        return ("reply", 0, header.src)
    if message.is_error:
        # Unreachable et al.: the *packet size* traversed the path as far
        # as it goes; treat as terminal.
        return ("error", 0, header.src)
    return None


def discover_pmtu(
    internet: Internet,
    vantage_name: str,
    targets: Sequence[int],
    config: Optional[PMTUDConfig] = None,
) -> Dict[int, PMTUDResult]:
    """Run PMTUD toward every target; returns per-target results.

    Driven synchronously per round (each round's replies inform the next
    round's sizes), paced at ``config.pps`` within a round.
    """
    config = config or PMTUDConfig()
    vantage = internet.vantage(vantage_name)
    interval = pps_interval(config.pps)

    results: Dict[int, PMTUDResult] = {target: PMTUDResult() for target in targets}
    sizes: Dict[int, int] = {target: config.start_mtu for target in targets}
    live = set(targets)

    # A round sends one probe per live target and reads each reply as it
    # is answered; the next round starts on this one's last probe or
    # reply, whichever is later.
    start = 0
    for _ in range(config.max_rounds):
        if not live:
            break
        replies: Dict[int, Tuple[str, int, int]] = {}
        end = start
        for index, target in enumerate(sorted(live)):
            now = start + index * interval
            packet = _padded_probe(vantage.address, target, sizes[target])
            reply = internet.answer(packet, now)
            end = max(end, now)
            if reply is not None:
                arrival, data = reply
                end = max(end, arrival)
                outcome = _outcome(data)
                if outcome is not None:
                    replies[target] = outcome
        start = end
        for target in sorted(live):
            result = results[target]
            result.rounds += 1
            outcome = replies.get(target)
            if outcome is None:
                # Silence: can't distinguish loss from a black hole here;
                # retry at the floor once, then give up.
                if sizes[target] > config.floor:
                    sizes[target] = config.floor
                else:
                    live.discard(target)
                continue
            kind, mtu, hop = outcome
            if kind == "ptb":
                result.bottleneck_hop = hop
                next_size = max(config.floor, min(mtu, sizes[target] - 1))
                if next_size >= sizes[target]:
                    live.discard(target)  # inconsistent PTB; stop
                else:
                    sizes[target] = next_size
            else:
                result.path_mtu = sizes[target]
                result.confirmed = kind == "reply"
                live.discard(target)
    return results


def mtu_census(results: Dict[int, PMTUDResult]) -> Dict[int, int]:
    """Histogram of confirmed path MTUs."""
    census: Dict[int, int] = {}
    for result in results.values():
        if result.path_mtu is not None:
            census[result.path_mtu] = census.get(result.path_mtu, 0) + 1
    return census
