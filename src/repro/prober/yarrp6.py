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

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from .base import Prober
from .permutation import ProbeSchedule
from .records import ProbeRecord


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


class Yarrp6(Prober):
    """The prober: hand it targets, pull packets, feed it responses."""

    Config = Yarrp6Config

    def __init__(
        self,
        source: int,
        targets: Sequence[int],
        config: Optional[Yarrp6Config] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(source, targets, config, metrics)
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
        # Fixed per campaign, read per probe: the walk's length, the TTLs
        # whose Time Exceeded triggers a fill (empty with fill off or a
        # ceiling at or below max_ttl) and the neighborhood limit.
        self._total = len(self.schedule)
        self._fill_ttls = range(config.max_ttl, config.fill_ceiling if config.fill else 0)
        self._neighborhood_ttl = config.neighborhood_ttl
        self._cursor = 0
        #: Walk pairs prefetched via the schedule's batched fast path;
        #: ``_fetched`` counts pairs pulled from the schedule so far.
        self._buffer: Deque[Tuple[int, int]] = deque()
        self._fetched = 0
        self._fill_queue: Deque[Tuple[int, int]] = deque()
        self.fills = 0
        self.skipped = 0
        # Neighborhood state: per-TTL timestamp of the last new interface.
        self._last_new_at: Dict[int, int] = {}
        self._neighborhood_known: Dict[int, set] = {}
        self._m_fills = self._registry.counter("prober.fills")
        self._m_skipped = self._registry.counter("prober.skipped")

    # -- emission --------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True when the permutation walk and fill queue are both done."""
        return self._cursor >= self._total and not self._fill_queue

    #: Pairs pulled per batched schedule call; amortizes the permutation's
    #: per-index overhead without meaningfully front-running the walk.
    BATCH = 256

    def next_probe(self, now: int) -> Optional[bytes]:  # repro-lint: program-root
        """The next probe packet to emit at virtual time ``now``."""
        if self._fill_queue:
            target, ttl = self._fill_queue.popleft()
            self.fills += 1
            self._m_fills.inc()
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
                self._m_skipped.inc()
                continue
            return self._emit(self.targets[target_index], ttl, now)
        return None

    @property
    def pure_walk(self) -> bool:
        """True when the emission stream is a pure permutation walk —
        no fill probes and no neighborhood skipping — i.e. every probe's
        position and send time are known in advance.  This is the
        precondition for :meth:`next_probes` (and for the campaign
        runner's columnar fast path)."""
        return not self.config.fill and self.config.neighborhood_ttl is None

    # repro-lint: hot-loop
    def next_probes(self, times: Sequence[int]) -> List[Tuple[int, bytes]]:  # repro-lint: program-root
        """The batched pull loop: up to ``len(times)`` walk probes, the
        k-th crafted for virtual send time ``times[k]``.

        Returns ``[(send_time, packet), ...]``, shorter than ``times``
        only when the walk exhausts.  Packets are crafted into one
        preallocated buffer via :class:`~repro.prober.encoding.
        ProbeTemplate` with in-place field patching — byte-identical to
        what :meth:`next_probe` would emit at the same virtual times, but
        without per-probe byte assembly or per-probe schedule calls.

        Only valid for pure walks (:attr:`pure_walk`): fill and
        neighborhood modes react to responses, which would reorder the
        stream mid-block.
        """
        if not self.pure_walk:
            raise ValueError(
                "next_probes requires a pure walk (fill and neighborhood off)"
            )
        count = min(len(times), self._total - self._cursor)
        if count <= 0:
            return []
        template, buffer = self._ensure_template()
        targets = self.targets
        buffered = len(self._buffer)
        if buffered < count:
            # Top the prefetch deque up to a full block, then consume
            # pairs straight off it below — no intermediate pairs list
            # (PERF101), same (target, ttl) stream in the same order.
            fetch = count - buffered
            self._buffer.extend(self.schedule.block(self._fetched, fetch))
            self._fetched += fetch
        self._cursor += count
        out: List[Tuple[int, bytes]] = []
        append = out.append
        popleft = self._buffer.popleft
        encode_into = template.encode_into
        for position in range(count):
            target_index, ttl = popleft()
            when = times[position]
            encode_into(buffer, targets[target_index], ttl, when & 0xFFFFFFFF)
            append((when, bytes(buffer)))
        self.sent += count
        self._m_sent.inc(count)
        return out

    def _skip_neighborhood(self, ttl: int, now: int) -> bool:
        """Whether ``ttl``, a TTL inside the neighborhood, has gone quiet."""
        last = self._last_new_at.get(ttl)
        if last is None:
            # Nothing seen yet at this TTL: keep probing until the first
            # discovery or until the window elapses from campaign start.
            return now > self.config.neighborhood_window_us and ttl in self._neighborhood_known
        return now - last > self.config.neighborhood_window_us

    # -- reception -------------------------------------------------------
    # repro-lint: hot-loop
    def receive(
        self, data: bytes, now: int, sent: Optional[int] = None
    ) -> Optional[ProbeRecord]:  # repro-lint: program-root
        """Feed a response packet; may enqueue fill probes.

        ``sent`` overrides the probes-sent count attributed to this
        response (the discovery-curve x coordinate).  The batched
        campaign loop crafts emissions ahead of the virtual clock, so it
        passes the analytically reconstructed "probes sent when this
        response arrived" — the same number the per-event loop's live
        counter would hold.  Per-event callers leave it ``None``.
        """
        record = self.processor.process(
            data, now, self.sent if sent is None else sent
        )
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
            # Fill probes a late Time Exceeded queued after the walk's
            # last slot: the campaign ends before anything emits them.
            "fills_unsent": len(self._fill_queue),
            "skipped": self.skipped,
            **base,
            "decode_failures": self.processor.decode_failures,
            "mangled_targets": self.processor.mangled_targets,
            "tcp_responses": self.processor.tcp_responses,
        }
