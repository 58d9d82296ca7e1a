"""Multipath (ECMP) enumeration: an MDA-style flow sweep.

Yarrp6 deliberately pins each target onto one ECMP path (constant
headers).  The complementary question — *how many* parallel paths exist,
and through which routers — is what Paris traceroute's Multipath
Detection Algorithm answers by re-probing each hop under varied flow
identifiers.  Almeida et al. (PAM 2017) found load balancing prevalent
on IPv6 paths; the paper leans on that to justify the checksum fudge.

This prober varies the *fudged checksum constant* per flow (the same
field IPv6 load balancers hash for ICMPv6) and enumerates, per (target,
TTL), the set of responding interfaces across flows.  Responses are
matched statelessly as ever — the flow leaves the quotation's decoded
state untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..netsim.engine import pps_interval
from ..netsim.internet import Internet
from .encoding import encode_probe
from .records import ResponseProcessor


@dataclass
class MDAConfig:
    """Enumeration parameters."""

    max_ttl: int = 16
    #: Distinct flow identifiers swept per (target, TTL).
    flows: int = 8
    pps: float = 1000.0
    protocol: str = "icmp6"
    instance: int = 4


class MDAResult:
    """Per-hop interface sets discovered across flows."""

    def __init__(self, targets: Sequence[int], config: MDAConfig) -> None:
        self.targets = list(targets)
        self.config = config
        #: (target, ttl) -> set of responding interface addresses.
        self.hop_sets: Dict[Tuple[int, int], Set[int]] = {}
        self.sent = 0
        self.responses = 0

    def record(self, target: int, ttl: int, hop: int) -> None:
        self.hop_sets.setdefault((target, ttl), set()).add(hop)
        self.responses += 1

    def divergent_hops(self) -> Dict[Tuple[int, int], Set[int]]:
        """The (target, ttl) positions where flows saw different routers
        — the load-balanced portions of the paths."""
        return {
            key: hops for key, hops in self.hop_sets.items() if len(hops) > 1
        }

    def width(self, target: int) -> int:
        """Maximum parallel-interface width observed along one target's
        path (1 = no load balancing seen)."""
        widths = [
            len(hops)
            for (probed, _), hops in self.hop_sets.items()
            if probed == target
        ]
        return max(widths, default=0)


def run_mda(
    internet: Internet,
    vantage_name: str,
    targets: Sequence[int],
    config: Optional[MDAConfig] = None,
) -> MDAResult:
    """Sweep flows over every (target, TTL) and collect per-hop sets."""
    config = config or MDAConfig()
    if not targets:
        raise ValueError("no targets")
    vantage = internet.vantage(vantage_name)
    result = MDAResult(targets, config)
    processor = ResponseProcessor(config.instance)
    interval = pps_interval(config.pps)
    # The replies are held and handed on before each slot in (arrival,
    # send order) order, so ``hop_sets`` fills in the order they land.
    held: List[Tuple[int, int, bytes]] = []

    def hear(until: int) -> None:
        while held and held[0][0] <= until:
            arrival, _, data = heappop(held)
            record = processor.process(data, arrival, result.sent)
            if record is not None and record.is_time_exceeded:
                result.record(record.target, record.ttl, record.hop)

    now = 0
    for flow_id in range(config.flows):
        for target in targets:
            for ttl in range(1, config.max_ttl + 1):
                hear(now)
                packet = encode_probe(
                    vantage.address,
                    target,
                    ttl,
                    elapsed=now & 0xFFFFFFFF,
                    instance=config.instance,
                    protocol=config.protocol,
                    flow_id=flow_id * 7,  # spread the checksum constants
                )
                result.sent += 1
                reply = internet.answer(packet, now)
                if reply is not None:
                    heappush(held, (reply[0], result.sent, reply[1]))
                now += interval
    hear(max([now] + [arrival for arrival, _, _ in held]))
    return result
