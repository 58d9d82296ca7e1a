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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from ..netsim.engine import Engine, pps_interval
from ..netsim.internet import Internet
from ..obs.metrics import NULL_REGISTRY, MetricDump, MetricsRegistry
from ..obs.profiler import NULL_PROFILER, WallProfiler
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

#: Emissions crafted per engine event on the columnar fast path.  Large
#: enough to amortize permutation/encode dispatch, small enough that the
#: response backlog stays modest.
DEFAULT_BATCH = 256


def emissions_before(
    when: int, rtt_us: int, offset: int, stride: int, cap: int, tick_gap: int
) -> int:
    """Probes an instance has emitted when a response arriving at ``when``
    is processed, replicating the engine's (time, sequence) event order.

    The instance emits its ``k``-th probe at ``offset + k*stride``, ``cap``
    probes in all, so counting emissions before ``when`` is arithmetic.
    One exactly at ``when`` went first only if the response's round trip
    was shorter than ``tick_gap``, the gap between consecutive ticks of
    the engine that ran it: a response is scheduled at its probe's send
    time, the tick at ``when`` one gap earlier, and equal times fire in
    scheduling order.
    """
    if when < offset:
        return 0
    before, remainder = divmod(when - offset, stride)
    if remainder or rtt_us < tick_gap:
        before += 1
    return min(before, cap)


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

    The campaign loop is a generator paced by :meth:`Engine.drive`: each
    resumption emits (one probe, or one block on the columnar path) and
    yields the delay to its next emission.  The per-event loop hands
    each probe to :meth:`Internet.exchange`, which schedules the
    response's delivery; the columnar loop hands it to
    :meth:`Internet.answer` and records the replies itself.  The loop
    returns once the prober is exhausted, so the campaign's duration is
    its last emission or response.  Nothing but the engine's heap refers
    to the suspended loop, so when this function returns the caller
    holds the only reference to ``internet``.

    ``pace_offset_us``/``pace_stride`` interleave this instance with
    cooperating shard instances on the virtual clock: the first emission
    happens at ``pace_offset_us`` and subsequent ones every ``pace_stride``
    probe intervals.  Shard ``s`` of ``N`` run with offset ``s * interval``
    and stride ``N`` occupies exactly the emission slots the single-process
    walk would give its permutation positions, which is what makes the
    parallel runner's merge bit-for-bit faithful (see ``prober.parallel``).

    ``metrics`` turns on telemetry: engine/prober/rate-limiter instruments
    plus the per-virtual-bucket ``campaign.sent`` and ``campaign.discovery``
    series (the Figure 7 inputs), all dumped into the result's ``metrics``
    field.  It defaults to the shared no-op registry and never alters the
    campaign's event stream: the probe bytes, records, and interfaces are
    bit-identical with telemetry on or off.

    ``batch`` sizes the **columnar fast path**: when the prober is a
    Yarrp6 walk, with or without fill mode (no neighborhood skipping),
    the campaign emits ``batch`` probes per resumption through the
    batched pull loop (:meth:`Yarrp6.next_probes`) instead of one per
    tick.  Fill mode's one reaction, a Time Exceeded
    at TTL >= max TTL queueing TTL + 1, is worked out from what
    :meth:`Internet.answer` returns, so the fill joins the queue at the
    slot the per-event loop's delivery would have queued it for.  No
    response is scheduled on the engine: the loop holds each reply and,
    at every resumption, first records those that arrived by then in
    (arrival, exchange order) order — what the engine would have
    delivered before that resumption — and the rest once the clock has
    landed on the last arrival.  The engine fires one event per block
    (plus that landing).  Each response's probes-sent count is
    reconstructed from the pacing arithmetic.  The dump, records, curve,
    interfaces, summary (``fills`` and ``fills_unsent`` included) and
    duration are byte-identical to the per-event path — pinned by
    ``tests/prober/test_batched_equivalence.py``.  ``batch=0`` forces
    the per-event reference path; ``None`` means :data:`DEFAULT_BATCH`.

    ``profiler`` attributes *host* time to ``campaign.setup`` /
    ``campaign.run`` phases, with per-block aggregates (``emit.craft``,
    the pull loop crafting each probe and handing it to the wire, and
    ``recv.deliver``, recording the replies due) on the columnar path.  Wall-clock
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
        registry = metrics if metrics is not None else NULL_REGISTRY
        engine = Engine(metrics=metrics)
        vantage = internet.vantage(vantage_name)
        machine = prober_class(vantage.address, targets, config, registry)
        interval = pps_interval(pps) * pace_stride

        sent_series = registry.series("campaign.sent")
    # The processor records ``campaign.discovery`` where it finds a new
    # interface; the sent series costs a call per probe, so it is skipped
    # entirely when nobody is listening.
    metered = registry.enabled

    # -- per-event loop ---------------------------------------------------
    # One probe per resumption; the internet schedules each response's
    # delivery on the engine.
    receive = machine.receive

    def deliver(data: bytes, sent_at: int) -> None:
        receive(data, engine.now)

    def tick() -> Iterator[int]:
        emit = machine.next_probe
        exchange = internet.exchange
        while True:
            now = engine.now
            packet = emit(now)
            # None: neighborhood skipping may momentarily starve emission.
            if packet is not None:
                if metered:
                    sent_series.record(now)
                exchange(engine, packet, now, deliver)
            if machine.exhausted:
                # Probers that exhaust on their final emission (Yarrp6) end the
                # campaign here, so duration is the last emission or response —
                # never an empty trailing tick, whose time would depend on the
                # pacing stride rather than on the probe stream itself.
                return
            yield interval

    # -- columnar fast path ---------------------------------------------
    # One engine event per *block* of emissions instead of one per probe:
    # the pull loop crafts a run of probes into a preallocated buffer and
    # hands each to the internet at its exact logical send time (in
    # emission order, so limiter and loss draws replay identically).  The
    # replies are held here, not scheduled: each resumption first records
    # those that arrived by its time, in (arrival, exchange order) order —
    # what the engine would have delivered before it, a tie included,
    # since a reply always exists before the next resumption is armed.  A
    # pure walk is the case where the fill range is empty.
    if (
        batch > 0
        and isinstance(machine, Yarrp6)
        and machine.config.neighborhood_ttl is None
    ):
        walker = machine
        process = walker.processor.process
        held: List[Held] = []

        def deliver_held(until: int) -> None:  # repro-lint: hot-loop
            """Record every held reply arriving at or before ``until``."""
            while held and held[0][0] <= until:
                arrival, _, data, send_time = heappop(held)
                # The per-event loop's live sent counter, reconstructed
                # from the pacing arithmetic; the pull loop runs ahead of
                # the clock, so its own count caps it only once it has
                # ended.
                sent = emissions_before(
                    arrival, arrival - send_time, pace_offset_us, interval,
                    walker.sent, interval,
                )
                process(data, arrival, sent)

        def block_tick() -> Iterator[int]:  # repro-lint: hot-loop
            # First resumed inside the open ``campaign.run`` phase, so the
            # per-block aggregates nest under it; a disabled profiler
            # hands both calls back untouched.
            pull = prof.wrap("emit.craft", walker.next_probes)
            deliver = prof.wrap("recv.deliver", deliver_held)
            answer = internet.answer
            hold = partial(heappush, held)
            while True:
                start = engine.now
                deliver(start)
                # An arithmetic progression, not a materialized list: zero
                # per-block allocation (PERF101); next_probes only slices,
                # iterates and bisects it.  interval >= 1 (pps_interval).
                times = range(start, start + batch * interval, interval)
                count = pull(times, answer, hold)
                if metered:
                    for when in times[:count]:
                        sent_series.record(when)
                if walker.exhausted:
                    break
                yield count * interval
            # Land the clock where the per-event loop's engine stops: on
            # the final emission or the last arrival, whichever is later
            # (duration invariant), and record what is still held there.
            end = times[count - 1] if count else start
            for arrival, _, _, _ in held:
                end = max(end, arrival)
            if end > engine.now:
                yield end - engine.now
            deliver(end)

        steps = block_tick()
    else:
        steps = tick()

    if registry.enabled:
        internet.attach_observers(registry)
    try:
        with prof.phase("campaign.run", prober=prober):
            engine.drive(steps, pace_offset_us)
            engine.run()
    finally:
        internet.detach_observers()

    return CampaignResult.collect(
        machine,
        name or "%s/%s" % (vantage_name, prober),
        vantage_name,
        prober,
        pps,
        engine.now,
        registry.to_dict() if registry.enabled else None,
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
