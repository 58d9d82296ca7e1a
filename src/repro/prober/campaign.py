"""Campaign orchestration: a prober, a vantage, and the internet, run
against the virtual clock at a configured packet rate.

This is the reproduction's equivalent of "run yarrp6 at 1kpps from
EU-NET with the cdn-k32-z64 target list": it paces the prober's
emissions, injects the packets, and records the responses at their
simulated arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type

from ..netsim.build import collector_paused
from ..netsim.engine import pps_interval
from ..netsim.internet import Internet
from ..obs.metrics import MetricDump, MetricsRegistry
from ..obs.profiler import NULL_PROFILER, WallProfiler
from ..packet.icmpv6 import TYPE_TIME_EXCEEDED
from .base import Prober
from .doubletree import DoubletreeProber
from .records import ProbeRecord
from .traceroute import SequentialProber
from .yarrp6 import Held, Yarrp6


@dataclass
class CampaignResult:
    """Everything a campaign produced, for the analysis layer."""

    name: str
    vantage: str
    prober: str
    pps: float
    targets: int
    sent: int
    records: List[ProbeRecord]
    interfaces: Set[int]
    curve: List[Tuple[int, int]]
    response_labels: Dict[str, int]
    summary: Dict[str, int]
    duration_us: int
    #: Count of traces issued (targets probed; one "trace" per target in
    #: the paper's accounting, regardless of prober).
    traces: int = 0
    #: Telemetry dump (None unless the campaign ran with a registry).
    metrics: Optional[MetricDump] = None
    #: Exported wall-clock profile (None unless the run was profiled).
    #: Host-dependent reporting data: never serialized into ``.yrp6``
    #: output, never merged into metrics, never read by simulation code.
    wall_profile: Optional[Dict[str, Any]] = None

    @classmethod
    def collect(
        cls,
        machine: Prober,
        name: str,
        vantage: str,
        prober: str,
        pps: float,
        duration_us: int,
        metrics: Optional[MetricDump] = None,
    ) -> "CampaignResult":
        """The result of a finished campaign, read off its prober."""
        processor = machine.processor
        return cls(
            name=name,
            vantage=vantage,
            prober=prober,
            pps=pps,
            targets=len(machine.targets),
            sent=machine.sent,
            records=processor.records,
            interfaces=set(processor.interfaces),
            curve=list(processor.curve),
            response_labels=dict(processor.response_labels),
            summary=machine.summary(),
            duration_us=duration_us,
            traces=len(machine.targets),
            metrics=metrics,
        )

    @property
    def yield_per_probe(self) -> float:
        """Interface addresses discovered per probe (Table 6's metric)."""
        return len(self.interfaces) / self.sent if self.sent else 0.0


#: Prober kind -> class.  A class names its config dataclass as
#: ``Config``; the kinds are also the CLI's ``--prober`` choices.
PROBERS: Dict[str, Type[Prober]] = {
    "yarrp6": Yarrp6,
    "sequential": SequentialProber,
    "doubletree": DoubletreeProber,
}

#: Emissions crafted per block on the columnar fast path.  Large
#: enough to amortize permutation/encode dispatch, small enough that the
#: response backlog stays modest.
DEFAULT_BATCH = 256


def emissions_before(
    when: int, rtt_us: int, offset: int, stride: int, cap: int, tick_gap: int
) -> int:
    """Probes an instance has emitted when a reply arriving at ``when`` is
    handed on, in the per-probe loop's order.

    The instance emits its ``k``-th probe at ``offset + k*stride``, ``cap``
    probes in all, so counting emissions before ``when`` is arithmetic.
    A reply arriving on a slot's time is handed on before that slot
    emits, so one exactly at ``when`` counts only when it is the reply's
    own probe, a round trip shorter than ``tick_gap``, the slot spacing of
    the loop the count stands for.
    """
    if when < offset:
        return 0
    before, remainder = divmod(when - offset, stride)
    if remainder or rtt_us < tick_gap:
        before += 1
    return min(before, cap)


def record_discovery(metrics: MetricsRegistry, records: Sequence[ProbeRecord]) -> None:
    """Read ``prober.ttl_yield`` (every Time Exceeded, by originating
    TTL) and ``campaign.discovery`` (Figure 7's curve over virtual time:
    one point at the arrival of each new interface's first record) off a
    finished campaign's record stream, in record order."""
    ttl_yield = metrics.counter_map("prober.ttl_yield")
    discovery = metrics.series("campaign.discovery")
    seen: Set[int] = set()
    for record in records:
        if record.icmp_type == TYPE_TIME_EXCEEDED:
            ttl_yield.inc(record.ttl)
            if record.hop not in seen:
                seen.add(record.hop)
                discovery.record(record.received_at)


def run_campaign(
    internet: Internet,
    vantage_name: str,
    targets: Sequence[int],
    prober: str = "yarrp6",
    pps: float = 1000.0,
    config: Optional[Any] = None,
    name: Optional[str] = None,
    pace_offset_us: int = 0,
    pace_stride: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    batch: Optional[int] = None,
    profiler: Optional[WallProfiler] = None,
) -> CampaignResult:
    """Run one probing campaign to completion in virtual time.

    Every campaign starts from :meth:`Internet.reset_dynamics` — full
    rate limiters, zeroed stats — isolating it from earlier trials on the
    same instance (the paper ran trials on separate days).

    The campaign is a plain loop over a local clock: it hands each probe
    to :meth:`Internet.answer` at its send time and holds the replies
    itself.  The **per-probe loop** runs the prober's
    ``next_probe``/``receive`` contract one slot at a time: before each
    slot's emission it feeds ``receive`` every held reply that arrived by
    the slot's time, in (arrival, send order) order, a reply landing on
    the slot included (``tests/prober/test_per_probe_loop.py`` checks it
    against an event scheduler that delivers each response as an event).
    A loop returns once the prober is exhausted, landing the clock on its
    last slot or last arrival, whichever is later, and handing on what it
    still holds, so the campaign's duration is its last emission or
    response.  Nothing outlives the call, so when this function returns
    the caller holds the only reference to ``internet``; the cyclic
    collector is paused while the loop runs (:func:`collector_paused`),
    as it would find nothing to free.

    ``pace_offset_us``/``pace_stride`` interleave this instance with
    cooperating shard instances on the virtual clock: the first emission
    happens at ``pace_offset_us`` and subsequent ones every ``pace_stride``
    probe intervals.  Shard ``s`` of ``N`` run with offset ``s * interval``
    and stride ``N`` occupies exactly the emission slots the single-process
    walk would give its permutation positions, which is what makes the
    parallel runner's merge bit-for-bit faithful (see ``prober.parallel``).

    ``metrics`` turns on telemetry, recorded at two doorways only: the
    per-virtual-bucket ``campaign.sent`` series as the loop emits, the
    rate-limiter instruments through :meth:`Internet.attach_observers`,
    and, after the run, ``campaign.discovery`` and ``prober.ttl_yield``
    read off the records (:func:`record_discovery`) — all dumped into
    the result's ``metrics`` field.  ``None`` (the default) records
    nothing.  Telemetry never alters the campaign's event stream: the
    probe bytes, records, and interfaces are bit-identical with it on or
    off, and the dump is the same on either loop.

    ``batch`` sizes the **columnar fast path**: when the prober is a
    Yarrp6 walk, with or without fill mode (no neighborhood skipping),
    the campaign emits ``batch`` probes per block through the batched
    pull loop (:meth:`Yarrp6.next_probes`) instead of one slot at a
    time.  Fill mode's one reaction, a Time Exceeded
    at TTL >= max TTL queueing TTL + 1, is worked out from what
    :meth:`Internet.answer` returns, so the fill joins the queue at the
    slot the per-probe loop's ``receive`` would have queued it for.  At
    every block's start the loop first records the held replies that
    arrived by then, in (arrival, send order) order, and the rest once
    the clock has landed on the last arrival.  Each response's probes-sent
    count is reconstructed from the pacing arithmetic.  The dump,
    records, curve, interfaces, summary (``fills`` and ``fills_unsent``
    included) and duration are byte-identical to the per-probe path —
    pinned by ``tests/prober/test_batched_equivalence.py``.  ``batch=0``
    forces the per-probe reference path; ``None`` means
    :data:`DEFAULT_BATCH`.

    ``profiler`` attributes *host* time to ``campaign.setup`` /
    ``campaign.run`` phases, with per-block aggregates (``emit.craft``,
    the pull loop crafting each probe and handing it to the wire, and
    ``recv.deliver``, recording the replies due) on the columnar path,
    and on either loop a per-probe ``net.answer`` aggregate, the time in
    :meth:`Internet.answer` (on the columnar path it is taken out of
    ``emit.craft``'s self time, inside which it runs).  Wall-clock
    reporting only: it never selects a code path, so the probe bytes and
    records stay bit-identical with profiling on or off.
    """
    if pace_stride < 1:
        raise ValueError("pace_stride must be >= 1: %r" % pace_stride)
    if pace_offset_us < 0:
        raise ValueError("negative pace_offset_us: %r" % pace_offset_us)
    if batch is None:
        batch = DEFAULT_BATCH
    if batch < 0:
        raise ValueError("negative batch: %r" % batch)
    prober_class = PROBERS.get(prober)
    if prober_class is None:
        raise ValueError("unknown prober kind %r" % prober)
    if config is not None and not isinstance(config, prober_class.Config):
        raise ValueError(
            "%s prober takes a %s, got %s"
            % (prober, prober_class.Config.__name__, type(config).__name__)
        )
    prof = profiler if profiler is not None else NULL_PROFILER
    with prof.phase("campaign.setup", prober=prober):
        internet.reset_dynamics()
        vantage = internet.vantage(vantage_name)
        machine = prober_class(vantage.address, targets, config)
        interval = pps_interval(pps) * pace_stride
    # The sent series costs a call per probe, so it is skipped entirely
    # when telemetry is off.
    sent_series = None if metrics is None else metrics.series("campaign.sent")

    # -- per-probe loop ---------------------------------------------------
    # One probe per slot.  The replies are held here: before each slot's
    # emission the loop feeds the prober every reply that arrived by
    # then, in (arrival, send order) order, a reply arriving on the slot
    # included.
    def run_slots() -> int:
        emit = machine.next_probe
        receive = machine.receive
        answer = prof.wrap("net.answer", internet.answer)
        held: List[Tuple[int, int, bytes]] = []
        now = pace_offset_us
        while True:
            while held and held[0][0] <= now:
                arrival, _, data = heappop(held)
                receive(data, arrival)
            packet = emit(now)
            # None: neighborhood skipping may momentarily starve emission.
            if packet is not None:
                if sent_series is not None:
                    sent_series.record(now)
                reply = answer(packet, now)
                if reply is not None:
                    # Send order: the prober's sent count, this probe's.
                    heappush(held, (reply[0], machine.sent, reply[1]))
            if machine.exhausted:
                # Probers that exhaust on their final emission (Yarrp6) end
                # the campaign on it, so duration is the last emission or
                # response — never an empty trailing slot, whose time would
                # depend on the pacing stride rather than on the probe
                # stream itself.
                break
            now += interval
        # Land the clock on the last slot or the last arrival, whichever
        # is later, and feed what is still held.
        end = now
        for arrival, _, _ in held:
            end = max(end, arrival)
        while held:
            arrival, _, data = heappop(held)
            receive(data, arrival)
        return end

    # -- columnar fast path ---------------------------------------------
    # One block of emissions per pass instead of one probe: the pull loop
    # crafts a run of probes into a preallocated buffer and hands each to
    # the internet at its exact logical send time (in emission order, so
    # limiter and loss draws replay identically).  The replies are held
    # here: each block first records those that arrived by its start, in
    # (arrival, send order) order — what the per-probe loop would have
    # fed its prober by then, a tie included.  A pure walk is the case
    # where the fill range is empty.
    if (
        batch > 0
        and isinstance(machine, Yarrp6)
        and machine.config.neighborhood_ttl is None
    ):
        walker = machine
        process = walker.processor.process
        held: List[Held] = []

        def deliver_held(until: int) -> None:
            """Record every held reply arriving at or before ``until``."""
            while held and held[0][0] <= until:
                arrival, _, data, send_time = heappop(held)
                # The per-probe loop's live sent counter, reconstructed
                # from the pacing arithmetic; the pull loop runs ahead of
                # the clock, so its own count caps it only once it has
                # ended.
                sent = emissions_before(
                    arrival, arrival - send_time, pace_offset_us, interval,
                    walker.sent, interval,
                )
                process(data, arrival, sent)

        def run_blocks() -> int:
            # Called inside the open ``campaign.run`` phase, so the
            # per-block aggregates nest under it; a disabled profiler
            # hands every call back untouched.  Each probe's network
            # exchange runs inside the pull loop's craft interval.
            pull = prof.wrap("emit.craft", walker.next_probes)
            deliver = prof.wrap("recv.deliver", deliver_held)
            answer = prof.wrap("net.answer", internet.answer, within="emit.craft")
            hold = partial(heappush, held)
            start = pace_offset_us
            while True:
                deliver(start)
                # An arithmetic progression, not a materialized list: no
                # block-long list of send times is built and thrown away;
                # next_probes only slices, iterates and bisects it.
                # interval >= 1 (pps_interval).
                times = range(start, start + batch * interval, interval)
                count = pull(times, answer, hold)
                if sent_series is not None:
                    for when in times[:count]:
                        sent_series.record(when)
                if walker.exhausted:
                    break
                start += count * interval
            # Land the clock where the per-probe loop lands: on the final
            # emission or the last arrival, whichever is later (duration
            # invariant), and record what is still held there.
            end = times[count - 1] if count else start
            for arrival, _, _, _ in held:
                end = max(end, arrival)
            deliver(end)
            return end

        run = run_blocks
    else:
        run = run_slots

    if metrics is not None:
        internet.attach_observers(metrics)
    try:
        with prof.phase("campaign.run", prober=prober), collector_paused():
            duration_us = run()
    finally:
        internet.detach_observers()
    if metrics is not None:
        record_discovery(metrics, machine.processor.records)

    return CampaignResult.collect(
        machine,
        name or "%s/%s" % (vantage_name, prober),
        vantage_name,
        prober,
        pps,
        duration_us,
        None if metrics is None else metrics.to_dict(),
    )


def _run_kind(
    kind: str,
    internet: Internet,
    vantage_name: str,
    targets: Sequence[int],
    pps: float = 1000.0,
    config: Optional[Any] = None,
    name: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[WallProfiler] = None,
    **config_kwargs: Any,
) -> CampaignResult:
    """:func:`run_campaign` for one row of :data:`PROBERS`, taking the
    prober's config either whole or as keywords."""
    if config is None and config_kwargs:
        config = PROBERS[kind].Config(**config_kwargs)
    return run_campaign(
        internet, vantage_name, targets, kind, pps, config, name=name,
        metrics=metrics, profiler=profiler,
    )


#: Convenience wrappers: ``run_yarrp6(internet, vantage, targets, pps=...,
#: fill=True)`` and likewise for the sequential (scamper-like) and
#: Doubletree baselines.
run_yarrp6 = partial(_run_kind, "yarrp6")
run_sequential = partial(_run_kind, "sequential")
run_doubletree = partial(_run_kind, "doubletree")
