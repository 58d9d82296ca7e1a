"""Sequential (scamper-style) traceroute baseline.

Production systems trace each destination with sequentially increasing
TTLs, running a window of traces concurrently.  Because traces start
together and advance in lockstep, the wire exhibits *per-TTL waves*: a
burst of TTL=1 probes (all absorbed by the handful of near-vantage
routers), then a burst of TTL=2 probes, and so on — precisely the packet
timing the paper's captures show ("per-TTL bursty behavior ... as traces
remain synchronized", Section 4.2), and the behaviour that drains ICMPv6
token buckets at high probing rates (Figure 5).

Paris-traceroute semantics come for free: probes reuse Yarrp6's
per-target-constant header encoding, so flows stay on one ECMP path.

Per-trace early termination mirrors scamper: a trace stops once the
destination answers, a terminal ICMPv6 error arrives, or ``gap_limit``
consecutive hops have gone unanswered (evaluated with a two-wave lag so
in-flight responses get counted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from .base import WaveProber
from .records import ProbeRecord


@dataclass
class SequentialConfig:
    max_ttl: int = 16
    protocol: str = "icmp6"
    instance: int = 2
    #: Concurrent traces per block (scamper's window).
    window: int = 500
    #: Consecutive unresponsive hops after which a trace is abandoned.
    gap_limit: int = 5
    #: Waves of lag before counting a hop as unresponsive (covers RTT).
    response_lag_waves: int = 2


class _TraceState:
    __slots__ = ("target", "alive", "responded_ttls", "terminal")

    def __init__(self, target: int) -> None:
        self.target = target
        self.alive = True
        self.responded_ttls: Set[int] = set()
        self.terminal = False


class SequentialProber(WaveProber):
    """Lockstep-windowed sequential tracer."""

    Config = SequentialConfig
    State = _TraceState

    def _waves(self, block: List[_TraceState]) -> Iterator[Tuple[int, int]]:
        """Per-TTL waves over the block's live traces."""
        for ttl in range(1, self.config.max_ttl + 1):
            for trace in block:
                if not trace.alive:
                    continue
                self._maybe_gap_out(trace, ttl)
                if trace.alive:
                    yield trace.target, ttl

    def _maybe_gap_out(self, trace: _TraceState, next_ttl: int) -> None:
        """Abandon the trace after gap_limit consecutive silent hops,
        discounting the most recent waves whose responses are in flight."""
        config = self.config
        horizon = next_ttl - 1 - config.response_lag_waves
        if horizon < config.gap_limit:
            return
        last_response = max(
            (ttl for ttl in trace.responded_ttls if ttl <= horizon), default=0
        )
        if horizon - last_response >= config.gap_limit:
            trace.alive = False

    def _on_record(self, trace: _TraceState, record: ProbeRecord) -> None:
        trace.responded_ttls.add(record.ttl)
        if record.is_terminal:
            # Destination (or a terminal error source) reached: stop.
            trace.terminal = True
            trace.alive = False

    def summary(self) -> Dict[str, int]:
        return {
            **super().summary(),
            "decode_failures": self.processor.decode_failures,
            "completed_traces": self.completed_traces,
        }
