"""Virtual time: the clock unit, pacing arithmetic and a reference
event scheduler.

The reproduction's central substitution (see DESIGN.md): probing "speed"
in the paper is wall-clock packets-per-second against real routers whose
ICMPv6 rate limiters drain in real time.  Here both sides run against a
simulated clock measured in integer microseconds, so a 100kpps campaign
is exactly as cheap to simulate as a 20pps one, while burstiness — the
phenomenon that separates sequential from randomized probing in Figure 5
— is preserved faithfully.

**Virtual time is a loop variable.**  Every driver (the campaign loops,
adaptive rate, Speedtrap, limiter inference) is a plain loop over its
own clock ``now``: it hands each probe to ``Internet.answer`` at its
send time and hands the replies on itself, in (arrival, send order)
order, a reply arriving on a slot's time before that slot.  No driver
constructs an :class:`Engine`; it stays as the scheduler that order is
defined by — the oracle of ``tests/prober/test_per_probe_loop.py`` and
a layer of the perf ledger.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import isfinite
from typing import Callable, List, Tuple

#: Microseconds per second, the virtual clock's unit.
US_PER_SECOND = 1_000_000


class Engine:
    """A minimal run-to-completion event scheduler over virtual time.

    The queue is one heap of ``(when, sequence, callback)`` entries; the
    sequence number is unique, so entries order by (time, scheduling
    order) and callbacks are never compared.
    """

    def __init__(self) -> None:
        self._now = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._sequence = count()

    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self._now

    def schedule_at(self, when: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute virtual time ``when`` (µs).

        Events scheduled in the past run at the current time; ordering
        between same-time events follows scheduling order.
        """
        if when < self._now:
            when = self._now
        heappush(self._heap, (when, next(self._sequence), callback))

    def run(self) -> int:
        """Drain the event queue; returns the final virtual time."""
        heap = self._heap
        while heap:
            self._now, _, callback = heappop(heap)
            callback()
        return self._now


def seconds(value: float) -> int:
    """Convert seconds to virtual-clock microseconds."""
    return int(round(value * US_PER_SECOND))


def pps_interval(packets_per_second: float) -> int:
    """Microseconds between packets at the given rate (at least 1)."""
    if not isfinite(packets_per_second) or packets_per_second <= 0:
        raise ValueError(
            "rate must be positive and finite: %r" % packets_per_second
        )
    return max(1, int(round(US_PER_SECOND / packets_per_second)))
