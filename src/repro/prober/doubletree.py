"""Doubletree baseline (Donnet et al., SIGMETRICS 2005).

Doubletree exploits the tree-like redundancy of traced paths: it starts
probing at an intermediate TTL ``h``, probes *forward* (increasing TTL)
until the destination answers or the path goes quiet, and *backward*
(decreasing TTL) until it sees an interface already present in the local
stop set — the hops near the vantage that every trace shares.

The paper (Section 4.2) observes two deployment problems this module
reproduces:

* the start TTL must be hand-tuned per vantage;
* under ICMPv6 rate limiting, a drained near hop returns nothing, so the
  backward walk never meets its stop condition and *keeps* probing the
  very hops whose token buckets are empty, holding them empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .base import WaveProber
from .records import ProbeRecord


@dataclass
class DoubletreeConfig:
    #: Intermediate start TTL (must be heuristically chosen per vantage).
    start_ttl: int = 8
    max_ttl: int = 16
    protocol: str = "icmp6"
    instance: int = 3
    window: int = 500
    #: Consecutive silent forward hops before abandoning the forward walk.
    gap_limit: int = 3


class _DTState:
    __slots__ = ("target", "forward_alive", "forward_gap", "backward_alive", "terminal")

    def __init__(self, target: int) -> None:
        self.target = target
        self.forward_alive = True
        self.forward_gap = 0
        self.backward_alive = True
        self.terminal = False


class DoubletreeProber(WaveProber):
    """Windowed Doubletree with a shared local stop set."""

    Config = DoubletreeConfig
    State = _DTState

    def __init__(
        self,
        source: int,
        targets: Sequence[int],
        config: Optional[DoubletreeConfig] = None,
    ) -> None:
        super().__init__(source, targets, config)
        if not 1 <= self.config.start_ttl <= self.config.max_ttl:
            raise ValueError(
                "start TTL %d outside probing range [1, %d]"
                % (self.config.start_ttl, self.config.max_ttl)
            )
        #: Local stop set: interfaces seen at any hop by any earlier trace.
        self.stop_set: Set[int] = set()
        #: (hop interface) pairs recorded per (target, ttl) for stop tests.
        self._hop_seen: Dict[Tuple[int, int], int] = {}

    def _waves(self, block: List[_DTState]) -> Iterator[Tuple[int, int]]:
        config = self.config
        # Forward waves: start_ttl .. max_ttl.
        for ttl in range(config.start_ttl, config.max_ttl + 1):
            for trace in block:
                if trace.forward_alive:
                    yield trace.target, ttl
                    self._account_forward(trace, ttl)
        # Backward waves: start_ttl-1 .. 1.  The stop test uses
        # *responses*: silence (e.g. a rate-limited hop) never stops
        # the walk — the pathological behaviour the paper reports.
        for ttl in range(config.start_ttl - 1, 0, -1):
            for trace in block:
                if trace.backward_alive:
                    yield trace.target, ttl

    def _account_forward(self, trace: _DTState, ttl: int) -> None:
        """Update the forward gap counter using responses so far (waves
        are long relative to RTT, so the previous wave has landed)."""
        previous = (trace.target, ttl - 1)
        if ttl > self.config.start_ttl:
            if previous in self._hop_seen:
                trace.forward_gap = 0
            else:
                trace.forward_gap += 1
                if trace.forward_gap >= self.config.gap_limit:
                    trace.forward_alive = False

    def _on_record(self, trace: _DTState, record: ProbeRecord) -> None:
        self._hop_seen[(record.target, record.ttl)] = record.hop
        if record.is_terminal:
            trace.terminal = True
            trace.forward_alive = False
        if record.ttl < self.config.start_ttl:
            # Backward walk: stop once a *response* hits the stop set.
            if record.hop in self.stop_set:
                trace.backward_alive = False
        self.stop_set.add(record.hop)

    def summary(self) -> Dict[str, int]:
        return {
            **super().summary(),
            "stop_set": len(self.stop_set),
            "completed_traces": self.completed_traces,
        }
