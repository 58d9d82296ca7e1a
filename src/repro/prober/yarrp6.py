"""Yarrp6: the stateless randomized high-rate IPv6 topology prober.

The prober's entire mutable state is a walk counter into a keyed
permutation of the (target × TTL) space, a fill queue, and the result
stream — no per-destination bookkeeping.  Matching responses to probes
happens purely by decoding the state each probe carries in its own
payload (Section 4.1, Figure 4 of the paper).

Optional behaviours from the paper:

* **fill mode** (Section 4.1): a Time Exceeded for a probe sent with hop
  limit h >= max TTL immediately triggers a probe at h+1, up to a
  ceiling — recovering long paths without permuting a large TTL range;
* **neighborhood mode** (Section 4.2, described as future work): probes
  for TTLs within the local neighborhood are skipped once no new
  interface has been discovered at that TTL within a time window.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..packet.icmpv6 import ERROR_PACKET, TYPE_TIME_EXCEEDED
from ..packet.ipv6 import PROTO_ICMPV6, VERSION
from .base import Prober
from .encoding import DecodeError, decode_at
from .permutation import ProbeSchedule
from .records import ProbeRecord

#: The IPv6 + ICMPv6 headers ahead of an error's quotation.
_QUOTE_AT = ERROR_PACKET.size

#: A run length no block reaches.
_UNBOUNDED = 1 << 62

#: ``answer(packet, when)`` hands one probe to the wire at its send time
#: and returns what comes back, ``(arrival time, response bytes)``, or
#: None for silence: :meth:`repro.netsim.internet.Internet.answer`.
Answer = Callable[[bytes, int], Optional[Tuple[int, bytes]]]
#: A reply held for recording, ``(arrival, send order, response bytes,
#: send time)``: sorted as tuples, the per-probe loop's delivery order.
Held = Tuple[int, int, bytes, int]
#: ``hold(held)`` takes each reply :meth:`Yarrp6.next_probes` received.
Hold = Callable[[Held], None]


@dataclass(frozen=True)
class Yarrp6Config:
    """Prober parameters (command-line flags of the real tool)."""

    min_ttl: int = 1
    max_ttl: int = 16
    protocol: str = "icmp6"
    instance: int = 1
    #: Permutation key; vary between campaigns to change probe order.
    key: int = 0x59415252
    fill: bool = False
    #: Hop-limit ceiling for fill probes.
    fill_ceiling: int = 32
    #: Multi-worker sharding: this instance's shard id and the total
    #: number of cooperating instances (all must share the same key).
    shard: int = 0
    shards: int = 1
    #: When set, TTLs <= this value participate in neighborhood skipping.
    neighborhood_ttl: Optional[int] = None
    #: Neighborhood window: skip a TTL once no *new* interface has been
    #: seen at it for this many microseconds.
    neighborhood_window_us: int = 5_000_000

    @property
    def fill_ttls(self) -> range:
        """The TTLs whose Time Exceeded triggers a fill one hop further:
        ``[max_ttl, fill_ceiling)``, empty with fill off or a ceiling at
        or below ``max_ttl``.  A non-empty range makes the emission
        stream depend on responses."""
        return range(self.max_ttl, self.fill_ceiling if self.fill else 0)


class Yarrp6(Prober):
    """The prober: hand it targets, pull packets, feed it responses."""

    Config = Yarrp6Config

    def __init__(
        self,
        source: int,
        targets: Sequence[int],
        config: Optional[Yarrp6Config] = None,
    ) -> None:
        super().__init__(source, targets, config)
        config = self.config
        self.schedule = ProbeSchedule(
            len(self.targets),
            config.min_ttl,
            config.max_ttl,
            config.key,
            shard=config.shard,
            shards=config.shards,
        )
        if not 1 <= config.fill_ceiling <= 255:
            raise ValueError("fill_ceiling must be in 1-255: %r" % config.fill_ceiling)
        # Fixed per campaign, read per probe: the walk's length, the fill
        # range and the neighborhood limit.
        self._total = len(self.schedule)
        self._fill_ttls = config.fill_ttls
        self._neighborhood_ttl = config.neighborhood_ttl
        self._cursor = 0
        #: Walk pairs prefetched via the schedule's batched fast path;
        #: ``_fetched`` counts pairs pulled from the schedule so far.
        self._buffer: Deque[Tuple[int, int]] = deque()
        self._fetched = 0
        self._fill_queue: Deque[Tuple[int, int]] = deque()
        #: Fills :meth:`next_probes` worked out from responses still in
        #: flight: a heap of ``(arrival, send order, target, ttl)``, the
        #: per-probe loop's delivery order.
        self._in_flight: List[Tuple[int, int, int, int]] = []
        #: How many slots :meth:`next_probes` crafts before sending any of
        #: them: the shortest round trip, in slots, that has yet queued a
        #: fill inside a run (unbounded for a pure walk, which never does).
        self._lead = _UNBOUNDED
        self.fills = 0
        self.skipped = 0
        # Neighborhood state: per-TTL timestamp of the last new interface.
        self._last_new_at: Dict[int, int] = {}
        self._neighborhood_known: Dict[int, set] = {}

    # -- emission --------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True when the permutation walk and fill queue are both done."""
        return self._cursor >= self._total and not self._fill_queue

    #: Pairs pulled per batched schedule call; amortizes the permutation's
    #: per-index overhead without meaningfully front-running the walk.
    BATCH = 256

    def next_probe(self, now: int) -> Optional[bytes]:
        """The next probe packet to emit at virtual time ``now``."""
        if self._fill_queue:
            target, ttl = self._fill_queue.popleft()
            self.fills += 1
            return self._emit(target, ttl, now)
        total = self._total
        limit = self._neighborhood_ttl
        while self._cursor < total:
            if not self._buffer:
                count = min(self.BATCH, total - self._fetched)
                self._buffer.extend(self.schedule.block(self._fetched, count))
                self._fetched += count
            target_index, ttl = self._buffer.popleft()
            self._cursor += 1
            if limit is not None and ttl <= limit and self._skip_neighborhood(ttl, now):
                self.skipped += 1
                continue
            return self._emit(self.targets[target_index], ttl, now)
        return None

    def next_probes(
        self, times: Sequence[int], answer: Answer, hold: Hold
    ) -> int:
        """The batched pull loop: emit up to ``len(times)`` probes, the
        k-th at virtual send time ``times[k]`` (ascending), handing each
        to ``answer(packet, when)`` and each reply that comes back to
        ``hold`` as ``(arrival, send order, response bytes, send time)``;
        the send order is :attr:`sent` counting this probe.
        Recording the held replies in tuple order is recording them in
        the per-probe loop's delivery order; the caller does that.

        Returns how many it emitted: fewer than ``len(times)`` only when
        the stream ends, right after the emission that leaves the prober
        :attr:`exhausted` (as the per-probe loop ends on it).  Packets are
        patched into one preallocated buffer via :class:`~repro.prober.
        encoding.ProbeTemplate`; the stream is byte-identical to
        :meth:`next_probe` called at the same virtual times with
        :meth:`receive` fed every response in the per-probe loop's order.

        That includes fill mode, whose one reaction is known at send
        time: ``answer`` returns the response and its arrival, so a Time
        Exceeded that :meth:`receive` would answer with a fill is kept in
        flight, keyed by delivery order (arrival, then send order), and
        joins the fill queue at the first slot at or after its arrival —
        where delivery would have put it.  Neighborhood skipping reads
        the clock of discovery, not of emission, and is refused.

        Slots are crafted a run at a time, then sent, each step back to
        back (5 % faster than alternating them per probe on the ledger's
        walk).  A fill due inside the run it came from cuts the run
        there: the slots from the cut on are put back, exactly as they
        were taken, to be chosen again, and later runs are no longer
        than the round trip that cut it.  A pure walk queues no fill, so
        its run is the whole block.
        """
        if self._neighborhood_ttl is not None:
            raise ValueError("next_probes cannot run neighborhood skipping")
        total = self._total
        walk = self._buffer
        fetch = min(len(times), total - self._cursor) - len(walk)
        if fetch > 0:
            # Top the prefetch deque up to a block's worth of walk pairs,
            # then consume pairs straight off it below — no block-long
            # pairs list to allocate and drop, same (target, ttl) stream
            # in order.
            walk.extend(self.schedule.block(self._fetched, fetch))
            self._fetched += fetch
        buffer = self._template_buffer
        encode_into = self._template.encode_into
        targets = self.targets
        fill_queue = self._fill_queue
        in_flight = self._in_flight
        fill_ttls = self._fill_ttls
        # The length of an error quoting a probe verbatim.
        verbatim = _QUOTE_AT + len(buffer)
        cursor = self._cursor
        sent = self.sent
        fills = 0
        count = len(times)
        position = 0
        ended = False
        while position < count and not ended:
            # -- craft a run: (when, packet, target, ttl, walk pair or None)
            crafted = []
            # (run index, entry) of each fill released into the queue.
            released = []
            for when in times[position : min(count, position + self._lead)]:
                while in_flight and in_flight[0][0] <= when:
                    # Delivered before this slot emits: every probe in
                    # flight left at an earlier slot.
                    entry = heappop(in_flight)
                    released.append((len(crafted), entry))
                    fill_queue.append(entry[2:])
                if fill_queue:
                    target, ttl = fill_queue.popleft()
                    pair = None
                elif cursor < total:
                    pair = walk.popleft()
                    target = targets[pair[0]]
                    ttl = pair[1]
                    cursor += 1
                else:
                    ended = True
                    break
                encode_into(buffer, target, ttl, when & 0xFFFFFFFF)
                crafted.append((when, bytes(buffer), target, ttl, pair))
                if cursor >= total and not fill_queue:
                    ended = True
                    break
            # -- send it, up to the first slot a fill from it is due at
            keep = len(crafted)
            index = 0
            while index < keep:
                when, packet, target, ttl, pair = crafted[index]
                index += 1
                sent += 1
                if pair is None:
                    fills += 1
                reply = answer(packet, when)
                if reply is None:
                    continue
                arrival, data = reply
                hold((arrival, sent, data, when))
                # A response quoting the probe verbatim fills only if the
                # probe's own TTL is in the fill range: no call for the rest.
                if fill_ttls and (
                    ttl in fill_ttls or len(data) != verbatim or not data.endswith(packet)
                ):
                    fill = self._fill_for(data, packet, target, ttl)
                    if fill is not None:
                        heappush(in_flight, (arrival, sent, *fill))
                        if arrival <= crafted[keep - 1][0]:
                            due = bisect_left(
                                times, arrival, position + index, position + keep
                            ) - position
                            self._lead = min(self._lead, due - index + 1)
                            keep = due
            # -- put back what was crafted past the cut, last slot first:
            # its pick to the front it came from, then the fills released
            # into the queue's back before it, into flight again.
            if keep < len(crafted):
                ended = False
                for slot in range(len(crafted) - 1, keep - 1, -1):
                    _, _, target, ttl, pair = crafted[slot]
                    if pair is None:
                        fill_queue.appendleft((target, ttl))
                    else:
                        walk.appendleft(pair)
                        cursor -= 1
                    while released and released[-1][0] == slot:
                        heappush(in_flight, released.pop()[1])
                        fill_queue.pop()
            position += keep
        emitted = sent - self.sent
        self._cursor = cursor
        self.sent = sent
        self.fills += fills
        return emitted

    def _fill_for(
        self, data: bytes, packet: bytes, target: int, ttl: int
    ) -> Optional[Tuple[int, int]]:
        """The fill :meth:`receive` will queue for response ``data`` to
        ``packet``, the probe for (``target``, ``ttl``): None unless the
        response is a Time Exceeded whose quoted TTL is in the fill
        range.  A quotation that is the probe verbatim is not decoded
        again; a mangled or truncated one is, in place and by the decoder
        :meth:`receive`'s processor calls, at the same offset."""
        if (
            len(data) < _QUOTE_AT
            or data[0] >> 4 != VERSION
            or data[6] != PROTO_ICMPV6
            or data[40] != TYPE_TIME_EXCEEDED
        ):
            return None
        if len(data) != _QUOTE_AT + len(packet) or not data.endswith(packet):
            try:
                target, ttl, _, _, _, _ = decode_at(data, _QUOTE_AT, self.config.instance)
            except DecodeError:
                return None
        return (target, ttl + 1) if ttl in self._fill_ttls else None

    def _skip_neighborhood(self, ttl: int, now: int) -> bool:
        """Whether ``ttl``, a TTL inside the neighborhood, has gone quiet.
        A TTL is never skipped before its first discovery."""
        last = self._last_new_at.get(ttl)
        return last is not None and now - last > self.config.neighborhood_window_us

    # -- reception -------------------------------------------------------
    def receive(self, data: bytes, now: int) -> Optional[ProbeRecord]:
        """Feed a response packet on the per-probe path: record it, note
        a neighborhood discovery, and queue the fill a Time Exceeded at
        a TTL in the fill range asks for.

        :meth:`next_probes` never needs this: it has already worked out
        each response's fill, so the batched loop hands the replies it
        held to :attr:`processor` directly, which only records them.
        """
        record = self.processor.process(data, now, self.sent)
        if record is None:
            return None
        ttl = record.ttl
        limit = self._neighborhood_ttl
        if limit is not None and ttl <= limit and record.is_time_exceeded:
            known = self._neighborhood_known.setdefault(ttl, set())
            if record.hop not in known:
                known.add(record.hop)
                self._last_new_at[ttl] = now
        if ttl in self._fill_ttls and record.is_time_exceeded:
            self._fill_queue.append((record.target, ttl + 1))
        return record

    # -- results ---------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Counters for reporting."""
        base = super().summary()
        # Emission counters lead; the base's response counters follow.
        return {
            "sent": base.pop("sent"),
            "fills": self.fills,
            # Fill probes a late Time Exceeded asks for after the
            # stream's last slot: queued by delivery on the per-probe
            # path, still in flight on the batched one; the campaign
            # ends before anything emits them.
            "fills_unsent": len(self._fill_queue) + len(self._in_flight),
            "skipped": self.skipped,
            **base,
            "decode_failures": self.processor.decode_failures,
            "mangled_targets": self.processor.mangled_targets,
            "tcp_responses": self.processor.tcp_responses,
        }
