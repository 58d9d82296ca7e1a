"""Virtual-time discrete-event engine.

The reproduction's central substitution (see DESIGN.md): probing "speed"
in the paper is wall-clock packets-per-second against real routers whose
ICMPv6 rate limiters drain in real time.  Here both sides run against a
simulated clock measured in integer microseconds, so a 100kpps campaign
is exactly as cheap to simulate as a 20pps one, while burstiness — the
phenomenon that separates sequential from randomized probing in Figure 5
— is preserved faithfully.

**One pacing primitive.**  A driver loop is a generator handed to
:meth:`Engine.drive`, which resumes it on the clock and re-arms it after
each delay it yields.  No driver schedules itself: the resumptions are
scheduled here and, on the extension drivers (MDA, Speedtrap, PMTUD,
adaptive rate, dealiasing, limiter inference), the responses by
``Internet.exchange``.  Neither campaign loop schedules a response: each
holds the replies ``Internet.answer`` returns and hands them on at its
own slots, in this queue's (time, scheduling-order) order, so the
engine resumes it once a block.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import isfinite
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

#: Microseconds per second, the engine's clock unit.
US_PER_SECOND = 1_000_000


class _Resumption(NamedTuple):
    """A driver generator waiting on the queue for its next turn (see
    :meth:`Engine.drive`).  One object serves the whole drive: firing it
    runs the generator to its next ``yield`` and, unless the generator
    returned, puts the same object back on the queue.  It is not a
    closure — no cell names it — so its queue entry is the only
    reference to it, and to the suspended generator."""

    engine: Engine
    steps: Iterator[int]

    def __call__(self) -> None:
        delay = next(self.steps, None)
        if delay is not None:
            self.engine.schedule(delay, self)


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

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` microseconds of virtual time."""
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        self.schedule_at(self._now + delay, callback)

    def drive(self, steps: Iterator[int], start: int = 0) -> None:
        """Pace the generator ``steps`` on the virtual clock.

        ``steps`` is resumed at absolute time ``start`` (µs) and again
        ``delay`` µs after each ``delay`` it yields; once it returns
        nothing further is scheduled.  An event a step schedules fires
        before that step's next resumption when their times tie
        (scheduling order).  The queue entry is the only reference to a
        suspended ``steps``, so a finished drive leaves nothing behind.
        """
        self.schedule_at(start, _Resumption(self, steps))

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue; stop once virtual time would pass ``until``.

        Returns the final virtual time.  With no ``until`` the engine runs
        until no events remain.
        """
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            self._now, _, callback = heappop(heap)
            callback()
        if until is not None and until > self._now:
            self._now = until
        return self._now

    @property
    def pending(self) -> int:
        """Number of events awaiting execution."""
        return len(self._heap)


def seconds(value: float) -> int:
    """Convert seconds to engine microseconds."""
    return int(round(value * US_PER_SECOND))


def pps_interval(packets_per_second: float) -> int:
    """Microseconds between packets at the given rate (at least 1)."""
    if not isfinite(packets_per_second) or packets_per_second <= 0:
        raise ValueError(
            "rate must be positive and finite: %r" % packets_per_second
        )
    return max(1, int(round(US_PER_SECOND / packets_per_second)))
