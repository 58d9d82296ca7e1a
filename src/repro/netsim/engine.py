"""Virtual-time discrete-event engine.

The reproduction's central substitution (see DESIGN.md): probing "speed"
in the paper is wall-clock packets-per-second against real routers whose
ICMPv6 rate limiters drain in real time.  Here both sides run against a
simulated clock measured in integer microseconds, so a 100kpps campaign
is exactly as cheap to simulate as a 20pps one, while burstiness — the
phenomenon that separates sequential from randomized probing in Figure 5
— is preserved faithfully.

**Columnar event queue.**  The queue is not a heap of
``(when, sequence, callback)`` tuples: every pending event costs a tuple
allocation and a three-way lexicographic comparison per heap operation,
which dominates the campaign inner loop at high probe rates.  Instead
the heap holds plain integers — ``(when << _SLOT_BITS) | slot`` — whose
ordering encodes (time, FIFO) directly, while callbacks live in a
parallel append-only slot array.  Slots are handed out monotonically, so
integer comparison alone reproduces the exact (time, scheduling-order)
event order the tuple heap produced; fired slots are nulled to release
references and the slot array is compacted in place once it is mostly
dead.  The event *order* — and therefore every campaign artifact — is
bit-identical to the tuple implementation; see
``docs/performance.md``.

**One pacing primitive.**  A driver loop is a generator handed to
:meth:`Engine.drive`, which resumes it on the clock and re-arms it after
each delay it yields.  No driver schedules itself: the resumptions are
scheduled here and, on the per-event loops, the responses by
``Internet.exchange``.  The columnar Yarrp6 loop schedules no response:
it holds the replies ``Internet.answer`` returns and records them at
its own resumptions, in this queue's (time, scheduling-order) order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterator, List, NamedTuple, Optional

from ..obs.metrics import NULL_REGISTRY, SCOPE_RUN, MetricsRegistry

#: Microseconds per second, the engine's clock unit.
US_PER_SECOND = 1_000_000

#: Low bits of a heap key addressing the callback slot array.  40 bits of
#: slots between compactions is unreachable (the array would not fit in
#: memory long before), so keys never collide and FIFO order holds.
_SLOT_BITS = 40
_SLOT_MASK = (1 << _SLOT_BITS) - 1

#: Compact the slot array when it holds at least this many entries and
#: at most a quarter of them are still pending.
_COMPACT_MIN = 4096


class _Resumption(NamedTuple):
    """A driver generator waiting in a heap slot for its next turn (see
    :meth:`Engine.drive`).  One object serves the whole drive: firing it
    runs the generator to its next ``yield`` and, unless the generator
    returned, puts the same object back on the heap.  It is not a closure
    — no cell names it — so the slot it sits in is the only reference to
    it, and to the suspended generator."""

    engine: Engine
    steps: Iterator[int]

    def __call__(self) -> None:
        delay = next(self.steps, None)
        if delay is not None:
            self.engine.schedule(delay, self)


class Engine:
    """A minimal run-to-completion event scheduler over virtual time.

    ``metrics`` attaches run-scoped instruments (events scheduled/fired,
    queue depth); the default is the shared no-op registry, so the
    telemetry costs one null method call per event when off.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._now = 0
        #: Heap of ``(when << _SLOT_BITS) | slot`` integer keys.
        self._heap: List[int] = []
        #: Slot array: parallel, append-only callback storage.  A fired
        #: or compacted-away slot is ``None``.
        self._slots: List[Optional[Callable[[], None]]] = []
        self._live = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_scheduled = registry.counter("engine.events_scheduled", scope=SCOPE_RUN)
        self._m_fired = registry.counter("engine.events_fired", scope=SCOPE_RUN)
        self._m_depth = registry.gauge("engine.queue_depth")

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
        slots = self._slots
        heappush(self._heap, (when << _SLOT_BITS) | len(slots))
        slots.append(callback)
        self._live += 1
        self._m_scheduled.inc()
        self._m_depth.set(self._live)
        if len(slots) >= _COMPACT_MIN and self._live * 4 <= len(slots):
            self._compact()

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
        (scheduling order).  The heap slot is the only reference to a
        suspended ``steps``, so a finished drive leaves nothing behind.
        """
        self.schedule_at(start, _Resumption(self, steps))

    def _compact(self) -> None:
        """Reassign pending slots to the low indices, dropping dead ones.

        Heap keys sort as (when, slot) and slots are issued in scheduling
        order, so re-slotting in sorted-key order preserves both the heap
        invariant (a sorted list is a heap) and FIFO among equal times.
        The lists are mutated in place: :meth:`run` holds aliases.
        """
        heap = self._heap
        slots = self._slots
        heap.sort()
        pending = [slots[key & _SLOT_MASK] for key in heap]
        heap[:] = [
            (key & ~_SLOT_MASK) | index for index, key in enumerate(heap)
        ]
        slots[:] = pending

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue; stop once virtual time would pass ``until``.

        Returns the final virtual time.  With no ``until`` the engine runs
        until no events remain.
        """
        heap = self._heap
        slots = self._slots
        fired = 0
        try:
            while heap:
                key = heap[0]
                when = key >> _SLOT_BITS
                if until is not None and when > until:
                    break
                heappop(heap)
                slot = key & _SLOT_MASK
                callback = slots[slot]
                slots[slot] = None
                self._live -= 1
                self._now = when
                fired += 1
                assert callback is not None
                callback()
        finally:
            self._m_fired.inc(fired)
            if not heap:
                slots.clear()
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Run exactly one event; False when the queue is empty."""
        heap = self._heap
        if not heap:
            return False
        key = heappop(heap)
        slot = key & _SLOT_MASK
        callback = self._slots[slot]
        self._slots[slot] = None
        self._live -= 1
        self._now = key >> _SLOT_BITS
        self._m_fired.inc()
        assert callback is not None
        callback()
        if not self._heap:
            self._slots.clear()
        return True

    @property
    def pending(self) -> int:
        """Number of events awaiting execution."""
        return self._live


def seconds(value: float) -> int:
    """Convert seconds to engine microseconds."""
    return int(round(value * US_PER_SECOND))


def pps_interval(packets_per_second: float) -> int:
    """Microseconds between packets at the given rate (at least 1)."""
    if packets_per_second <= 0:
        raise ValueError("rate must be positive: %r" % packets_per_second)
    return max(1, int(round(US_PER_SECOND / packets_per_second)))
