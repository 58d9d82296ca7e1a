"""Adaptive-rate probing: detect rate limiting, back off, recover.

Alvarez, Oprea and Rula (IETF 99 MAPRG; cited as the paper's [3])
mitigate ICMPv6 rate limiting in a stateful prober by adjusting
transmission behaviour.  This module grafts the same idea onto Yarrp6:
an AIMD controller watches the response rate of the near hops (the ones
every trace shares, and the first to collapse) over sliding windows,
halves the probing rate when responsiveness sags below a low-water mark,
and creeps back up additively while the near hops stay healthy.

The result trades completion time for responsiveness — useful when the
operator cannot know the path's token-bucket provisioning in advance
(which is always).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import isfinite
from typing import List, Optional, Sequence, Tuple

from ..netsim.engine import pps_interval
from ..netsim.internet import Internet
from .campaign import CampaignResult
from .yarrp6 import Yarrp6, Yarrp6Config


@dataclass
class AdaptiveConfig:
    """AIMD controller parameters.

    A value the controller would misuse is refused when the config is
    built, naming the field: a rate that is not positive and finite, a
    floor above the ceiling, a window shorter than 1 µs.  The run may
    start above ``max_pps`` (an overloaded start the first windows pull
    down); every rate the controller sets lies in [``min_pps``,
    ``max_pps``].
    """

    initial_pps: float = 2000.0
    min_pps: float = 50.0
    max_pps: float = 10_000.0
    #: Controller evaluation window.  A window that closes before five
    #: near-hop probes are sent does not act: its counts carry into the
    #: next window, so even a window shorter than one probe's interval
    #: acts once five near-hop probes have gathered.
    window_us: int = 250_000
    #: TTLs counted as the "near neighborhood" whose health is watched.
    near_ttl: int = 3
    #: Below this near-hop response fraction, halve the rate.
    low_water: float = 0.7
    #: Above this, increase the rate additively.
    high_water: float = 0.9
    #: Additive increase per healthy window (pps).
    increase: float = 200.0

    def __post_init__(self) -> None:
        for name in ("initial_pps", "min_pps", "max_pps"):
            rate = getattr(self, name)
            if not isfinite(rate) or rate <= 0:
                raise ValueError("%s must be positive and finite: %r" % (name, rate))
        if self.min_pps > self.max_pps:
            raise ValueError(
                "min_pps %r is above max_pps %r" % (self.min_pps, self.max_pps)
            )
        if self.window_us < 1:
            raise ValueError("window_us must be at least 1: %r" % self.window_us)


class RateController:
    """AIMD over windowed near-hop responsiveness."""

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config
        self.pps = config.initial_pps
        self.near_sent = 0
        self.near_answered = 0
        #: (virtual time, pps, observed fraction) per adjustment window.
        self.history: List[Tuple[int, float, float]] = []

    def on_probe(self, ttl: int) -> None:
        if ttl <= self.config.near_ttl:
            self.near_sent += 1

    def on_response(self, ttl: int) -> None:
        if ttl <= self.config.near_ttl:
            self.near_answered += 1

    def evaluate(self, now: int) -> float:
        """Close the current window and return the (new) rate.  A window
        with fewer than five near-hop probes keeps its counts for the
        next one."""
        config = self.config
        if self.near_sent >= 5:
            fraction = self.near_answered / self.near_sent
            if fraction < config.low_water:
                self.pps = max(config.min_pps, self.pps / 2)
            elif fraction > config.high_water:
                self.pps = min(config.max_pps, self.pps + config.increase)
            self.history.append((now, self.pps, fraction))
            self.near_sent = 0
            self.near_answered = 0
        return self.pps


def run_adaptive_yarrp6(
    internet: Internet,
    vantage_name: str,
    targets: Sequence[int],
    config: Optional[AdaptiveConfig] = None,
    yarrp_config: Optional[Yarrp6Config] = None,
) -> Tuple[CampaignResult, RateController]:
    """Yarrp6 campaign under AIMD rate control.

    Returns the campaign result plus the controller (whose ``history``
    records the rate trajectory).
    """
    config = config or AdaptiveConfig()
    internet.reset_dynamics()
    vantage = internet.vantage(vantage_name)
    machine = Yarrp6(vantage.address, targets, yarrp_config)
    controller = RateController(config)
    # The controller reacts to what it hears, so the replies are held and
    # handed on before each slot in (arrival, send order) order, a reply
    # arriving on the slot's time included.
    held: List[Tuple[int, int, bytes]] = []

    def hear(until: int) -> None:
        while held and held[0][0] <= until:
            arrival, _, data = heappop(held)
            record = machine.receive(data, arrival)
            if record is not None and record.is_time_exceeded:
                controller.on_response(record.ttl)

    now = 0
    window_end = config.window_us
    while True:
        hear(now)
        if now >= window_end:
            controller.evaluate(now)
            window_end = now + config.window_us
        packet = machine.next_probe(now)
        if packet is not None:
            # Hop limit byte of the IPv6 header drives the near-hop counter.
            controller.on_probe(packet[7])
            reply = internet.answer(packet, now)
            if reply is not None:
                heappush(held, (reply[0], machine.sent, reply[1]))
        if machine.exhausted:
            # As in run_campaign: the campaign ends on its final emission,
            # never on an empty trailing slot.
            break
        now += pps_interval(controller.pps)
    # The clock lands on the last emission or the last arrival.
    now = max([now] + [arrival for arrival, _, _ in held])
    hear(now)

    result = CampaignResult.collect(
        machine,
        "%s/adaptive-yarrp6" % vantage_name,
        vantage_name,
        "adaptive-yarrp6",
        config.initial_pps,
        now,
    )
    return result, controller
