"""Parallel campaign execution: one Yarrp6 permutation shard per worker
process, merged deterministically.

Yarrp6's keyed permutation was designed so cooperating instances can
split the probe space with no shared state (Section 4.1): shard ``s`` of
``N`` walks the permutation positions congruent to ``s`` modulo ``N``.
This module runs those shards in :mod:`multiprocessing` processes and
glues the results back together so that::

    run_parallel(spec, shards=N) == single-process campaign of ``spec``

holds bit for bit, for any ``N``, whenever the campaign is *decomposable*
(see below).  Three mechanisms make that true:

**Spec pickling, not object pickling.**  Workers never receive a live
:class:`~repro.netsim.internet.Internet` over a pipe — a
:class:`CampaignSpec` holds only the :class:`~repro.netsim.build.
InternetConfig` (a frozen dataclass of numbers), the vantage name, the
target tuple and the frozen prober config.  On fork platforms the
parent builds the world ONCE before the first process starts and every
shard attempt inherits it copy-on-write; attempts rewind its run-scoped
state (:meth:`Internet.fresh_run_state`) instead of rebuilding, so
sharding cost is per-campaign, not per-shard-times-build.  Spawn
platforms (and any process whose inherited world doesn't match the
spec) fall back to rebuilding the identical world from the config's
seed via :meth:`Internet.from_config` — worlds are pure functions of
their config, so both routes produce the same bytes.

**Stride pacing.**  The single-process walk emits permutation position
``p`` at virtual time ``p * interval``.  Shard ``s`` therefore runs with
its first emission at ``s * interval`` and one emission every ``N *
interval`` — its emissions land on exactly the virtual-clock slots the
single process would give its positions, so every probe carries the same
bytes (including the embedded send timestamp) at the same time.

**Deterministic merge.**  Records are sorted by arrival time, then by
send time (the event order the single-process engine produces), then by
shard id; interface sets are unioned; the discovery curve is replayed on
the virtual-time axis with the global sent-counter reconstructed from
the shards' emission clocks; summary counters and rate-limiter drop
tallies are summed; duration is the maximum over the shards that sent
anything.

The contract is exact when the simulated internet's dynamics are
*decoupled* — responses are a pure function of each probe — which
:func:`repro.netsim.build.decoupled_dynamics` guarantees, and when the
prober config keeps the emission stream a pure permutation walk (no fill
probes, no neighborhood skipping: both react to responses, which a shard
only partially sees).  Outside the contract ``run_parallel`` is still
deterministic and still covers every (target, TTL) pair exactly once;
the merged result is then the union of N cooperating instances rather
than a bit-replay of one instance, exactly as with real cooperating
yarrp processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..netsim.build import InternetConfig, decoupled_dynamics
from ..netsim.engine import pps_interval
from ..netsim.internet import Internet, check_vantage
from ..obs.failures import FailureReport
from ..obs.metrics import MetricDump, MetricsRegistry, merge_dumps
from ..obs.profiler import NULL_PROFILER, WallProfiler
from .campaign import CampaignResult, emissions_before, run_campaign
from .permutation import ProbeSchedule
from .records import ProbeRecord
from .supervise import (
    DEFAULT_SUPERVISE,
    ShardJob,
    SuperviseConfig,
    Supervisor,
    _resolve_start_method,
    validate_supervise,
)
from .yarrp6 import Yarrp6Config

if TYPE_CHECKING:  # only for annotations: the import stays lazy at runtime
    from ..lint.faultsan import FaultPlan


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to run one campaign, compactly picklable.

    ``config`` must describe an *unsharded* prober (``shard=0, shards=1``);
    :func:`run_parallel` assigns shard identities itself.
    """

    internet: InternetConfig
    vantage: str
    targets: Tuple[int, ...]
    pps: float = 1000.0
    config: Optional[Yarrp6Config] = None
    name: Optional[str] = None
    #: Run every shard with a metrics registry; the merged result carries
    #: the shard dumps combined by :func:`repro.obs.metrics.merge_dumps`.
    metrics: bool = False
    #: Run every shard with its own wall-clock profiler; the worker's
    #: exported phase data rides home on ``CampaignResult.wall_profile``.
    #: Reporting only — the probe bytes and records are identical either
    #: way (set by :func:`run_parallel` when the parent profiles).
    profile: bool = False

    def prober_config(self) -> Yarrp6Config:
        return self.config or Yarrp6Config()

    def default_name(self) -> str:
        return self.name or "%s/yarrp6" % self.vantage


#: What a spec may hold, besides tuples and frozen dataclasses of these.
_SCALARS = (int, float, str, bytes, type(None))


def _check_immutable(value: Any, path: str) -> None:
    """Refuse, naming its path, anything in ``value`` that could be
    written or could carry state across the pickle boundary: a spec is a
    tree of scalars, tuples and frozen dataclasses."""
    if isinstance(value, _SCALARS):
        return
    if isinstance(value, tuple):
        if set(map(type, value)) <= {int}:  # the targets: plain ints, fast
            return
        for at, item in enumerate(value):
            _check_immutable(item, "%s[%d]" % (path, at))
        return
    params = getattr(type(value), "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise ValueError("%s is a %s, not an immutable value" % (path, type(value).__name__))
    for item in fields(value):
        _check_immutable(getattr(value, item.name), "%s.%s" % (path, item.name))


def validate_spec(spec: CampaignSpec, shards: int) -> None:
    """Raise ``ValueError`` for any spec the workers would choke on.

    Runs in the parent, *before* any worker forks: a bad shard count, TTL
    range, vantage name or empty target list must fail immediately with a
    clean error, not N times inside worker processes.  So does a spec that
    is not an immutable value all the way down (a list of targets, a live
    ``Random``): a worker process would get a copy of it and a serial
    shard the object itself, so a write through it would differ between
    the two.
    """
    _check_immutable(spec, "spec")
    if shards < 1:
        raise ValueError("shards must be >= 1: %r" % shards)
    if not spec.targets:
        raise ValueError("no targets")
    # Internet.vantage's check, without building the world to make it.
    check_vantage(spec.vantage, [vantage.name for vantage in spec.internet.vantages])
    config = spec.prober_config()
    if config.shard != 0 or config.shards != 1:
        raise ValueError(
            "spec config must be unsharded (shard=0, shards=1); "
            "run_parallel assigns shard identities: got shard=%r shards=%r"
            % (config.shard, config.shards)
        )
    # Constructing the widest shard's schedule exercises every validation
    # the workers would hit: TTL range, domain size, shard arithmetic.
    ProbeSchedule(
        len(spec.targets),
        config.min_ttl,
        config.max_ttl,
        config.key,
        shard=shards - 1,
        shards=shards,
    )
    pps_interval(spec.pps)


#: The :class:`InternetConfig` fields :func:`decoupled_dynamics` sets to
#: keep every ICMPv6 rate limiter from binding; every other field it sets
#: drops responses at random.
_LIMITER_FIELDS = frozenset(
    {"core_limit_rate", "core_limit_burst", "edge_limit_rate", "edge_limit_burst", "vantages"}
)


def contract(spec: CampaignSpec, workers: int) -> str:
    """What ``workers`` processes promise for ``spec``, read off the spec
    alone: ``exact`` — the single campaign, bit for bit — or
    ``N-instances (...)``, the union of N cooperating instances, naming
    each reason it is not the single campaign:

    * ``limiters``: a rate limiter can bind, and each shard drains only
      its own copy of the buckets;
    * ``loss``: responses are dropped at random, and each shard draws
      from its own stream;
    * ``fill`` / ``neighbourhood``: a response changes what its prober
      sends next, and a shard sees only its own responses.
    """
    if workers == 1:
        return "exact"
    config = spec.prober_config()
    decoupled = decoupled_dynamics(spec.internet)
    coupled = {
        item.name
        for item in fields(decoupled)
        if getattr(decoupled, item.name) != getattr(spec.internet, item.name)
    }
    causes = [
        cause
        for cause, applies in (
            ("limiters", coupled & _LIMITER_FIELDS),
            ("loss", coupled - _LIMITER_FIELDS),
            ("fill", config.fill and config.fill_ceiling > config.max_ttl),
            ("neighbourhood", config.neighborhood_ttl is not None),
        )
        if applies
    ]
    if not causes:
        return "exact"
    return "%d-instances (%s)" % (workers, "|".join(causes))


#: This process's shared world: ``(config, world)``.  Set by
#: :func:`_world_for`; under a fork start method the parent populates it
#: before the first attempt process starts, so every attempt inherits the
#: built world copy-on-write and only rewinds run state.
_SHARED_WORLD: Optional[Tuple[InternetConfig, Internet]] = None


def _world_for(
    config: InternetConfig, profiler: Optional[WallProfiler] = None
) -> Internet:
    """The process-wide world for ``config``, rewound to run-fresh state.

    Reuses the cached world when its config matches — the fork-inherited
    parent build in attempt processes, or the previous call's build when
    shards run serially in one process.  A mismatch (first use, spawn
    start method, different campaign) rebuilds from the config; builds
    are pure functions of the config, so either route yields an
    identical world.

    ``profiler`` splits the host cost into ``world.build`` (cache miss
    only — a fork-inherited or cached world costs nothing) and
    ``world.rewind`` (every call) phases.
    """
    global _SHARED_WORLD
    prof = profiler if profiler is not None else NULL_PROFILER
    if _SHARED_WORLD is None or _SHARED_WORLD[0] != config:
        _SHARED_WORLD = (config, Internet.from_config(config, profiler=prof))
    world = _SHARED_WORLD[1]
    with prof.phase("world.rewind"):
        world.fresh_run_state()
    return world


def run_shard(
    spec: CampaignSpec,
    shard: int,
    shards: int,
    internet: Optional[Internet] = None,
    profiler: Optional[WallProfiler] = None,
) -> CampaignResult:  # repro-lint: program-root
    """Run one permutation shard of ``spec`` to completion in-process.

    ``internet`` lets a caller supply a prebuilt world (it must already be
    in run-fresh state); by default the process-shared world for the
    spec's config is used, rewound via :meth:`Internet.fresh_run_state`.

    Profiling: an explicit ``profiler`` records phases in place; with
    ``spec.profile`` set and no profiler given (the worker-process case),
    the shard builds its own and ships its export home on the result's
    ``wall_profile`` field.
    """
    own_profiler = profiler is None and spec.profile
    prof: WallProfiler
    if profiler is not None:
        prof = profiler
    elif spec.profile:
        prof = WallProfiler()
    else:
        prof = NULL_PROFILER
    with prof.phase("shard.run", shard=shard, shards=shards):
        config = replace(spec.prober_config(), shard=shard, shards=shards)
        if internet is None:
            internet = _world_for(spec.internet, profiler=prof)
        base = pps_interval(spec.pps)
        result = run_campaign(
            internet,
            spec.vantage,
            list(spec.targets),
            "yarrp6",
            spec.pps,
            config,
            name="%s[%d/%d]" % (spec.default_name(), shard, shards),
            pace_offset_us=shard * base,
            pace_stride=shards,
            metrics=MetricsRegistry() if spec.metrics else None,
            profiler=prof,
        )
    if own_profiler:
        prof.validate()
        result = replace(result, wall_profile=prof.export())
    return result


def run_single(
    spec: CampaignSpec, profiler: Optional[WallProfiler] = None
) -> CampaignResult:  # repro-lint: program-root
    """The single-process reference campaign for ``spec``."""
    internet = _world_for(spec.internet, profiler=profiler)
    return run_campaign(
        internet,
        spec.vantage,
        list(spec.targets),
        "yarrp6",
        spec.pps,
        spec.prober_config(),
        name=spec.name,
        metrics=MetricsRegistry() if spec.metrics else None,
        profiler=profiler,
    )


def run_parallel(
    spec: CampaignSpec,
    shards: int,
    processes: Optional[int] = None,
    start_method: Optional[str] = None,
    profiler: Optional[WallProfiler] = None,
    supervise: Optional[SuperviseConfig] = None,
    fault_plan: Optional["FaultPlan"] = None,
) -> CampaignResult:
    """Run ``spec`` as ``shards`` cooperating Yarrp6 instances and merge.

    ``processes`` caps how many shard attempts run at once, each in a
    process of its own (default: one per shard, bounded by the CPU
    count); with one process the shards run serially in this process,
    which produces the identical result — the merge is a pure function
    of the shard results.

    Execution is *supervised* (see :mod:`repro.prober.supervise`):
    ``supervise`` configures per-shard deadlines and a per-shard retry
    budget; the default retries nothing and fails on the first
    permanently-lost shard, but a crashed, killed, or hung attempt is
    always a detected event, never a hang, and every failed
    shard is reported in one structured
    :class:`~repro.prober.supervise.ShardFailure`.  What the supervisor
    had to do rides home on the merged result's ``failures`` field (a
    :class:`~repro.obs.failures.FailureReport` dump); because a shard
    is a pure function of ``(spec, shard, shards)``, a retried run
    stays byte-identical to a clean one.  ``fault_plan``
    is FaultSan's hook (:mod:`repro.lint.faultsan`): deterministic
    injected faults for testing the recovery paths.

    With a ``profiler`` the parent records the pipeline phases (world
    build/rewind, the first wave of attempt processes, IPC wait and the
    bytes each shard's outcome crossed the pipe as, retries, merge), each
    attempt process runs its own
    :class:`WallProfiler` (the spec is re-sent with ``profile=True``),
    and the worker exports plus per-shard pickled byte counts are
    folded into the profiler and attached to the merged result's
    ``wall_profile``.  Profiling is observe-only: probe bytes, records
    and metric dumps are identical with and without it.
    """
    prof = profiler if profiler is not None else NULL_PROFILER
    config = supervise if supervise is not None else DEFAULT_SUPERVISE
    with prof.phase("parallel", shards=shards):
        if processes is None:
            processes = min(shards, os.cpu_count() or 1)
        processes = max(1, min(processes, shards))
        # Inline shards share the process's world via _world_for and
        # run_shard profiles each one in place (no IPC, no pickling);
        # attempt processes each profile themselves and ship the export home.
        in_processes = processes > 1
        sent = replace(spec, profile=True) if in_processes and prof.enabled else spec
        with prof.phase("validate"):
            # The spec checked is the one the shards get.
            validate_spec(sent, shards)
            validate_supervise(config)

        report = FailureReport()
        job = ShardJob(run_shard, sent, shards, fault_plan)
        supervisor = Supervisor(job, config, report, prof)
        if in_processes:
            if _resolve_start_method(start_method) == "fork":
                # Build (or rewind) the shared world BEFORE the first fork:
                # every attempt inherits the compiled topology copy-on-write
                # and skips its own build entirely.  Spawned attempts start
                # with an empty module and rebuild from the spec's config.
                _world_for(spec.internet, profiler=prof)
            results = supervisor.run_processes(processes, start_method)
        else:
            results = supervisor.run_inline()
        with prof.phase("merge"):
            merged = merge_results(
                results,
                spec.pps,
                name=spec.default_name(),
                targets=len(spec.targets),
            )
        merged = replace(merged, failures=report.to_dict())
    if prof.enabled:
        for shard, result in enumerate(results):
            if result.wall_profile is not None:
                prof.add_worker(
                    shard,
                    result.wall_profile,
                    supervisor.bytes_by_shard.get(shard, 0),
                )
        if prof.complete():
            # Only when the "parallel" phase was the outermost one: a
            # caller still inside its own phase snapshots later itself.
            merged = replace(merged, wall_profile=prof.to_profile_dict())
    return merged


def _record_send_time(record: ProbeRecord) -> int:
    """Virtual send time recovered from the record's own timestamps."""
    return record.received_at - record.rtt_us


def _global_sent_at(
    when: int, rtt_us: int, base: int, shards: int, shard_sent: Sequence[int]
) -> int:
    """Probes sent across all shards when a response arriving at ``when``
    is processed, replicating the single-process engine's event order.

    Shard ``s`` emits its ``k``-th probe at ``s*base + k*shards*base``
    (stride pacing, one emission per tick until exhaustion), and the
    single-process engine ticks every ``base``.
    """
    return sum(
        emissions_before(when, rtt_us, shard * base, base * shards, cap, base)
        for shard, cap in enumerate(shard_sent)
    )


def merge_results(
    shard_results: Sequence[CampaignResult],
    pps: float,
    name: Optional[str] = None,
    targets: Optional[int] = None,
) -> CampaignResult:
    """Deterministically merge per-shard results into one campaign.

    Pure and order-insensitive: shard results may arrive from their
    processes in any order; everything is re-sorted on the virtual clock.
    """
    if not shard_results:
        raise ValueError("no shard results to merge")
    shards = len(shard_results)
    base = pps_interval(pps)
    first = shard_results[0]

    tagged: List[Tuple[int, int, int, ProbeRecord]] = []
    for shard, result in enumerate(shard_results):
        for record in result.records:
            tagged.append((record.received_at, _record_send_time(record), shard, record))
    tagged.sort(key=lambda item: item[:3])

    shard_sent = [result.sent for result in shard_results]
    interfaces = set()
    records: List[ProbeRecord] = []
    curve: List[Tuple[int, int]] = []
    discovery_times: List[int] = []
    for received_at, send_time, shard, record in tagged:
        records.append(record)
        if record.is_time_exceeded and record.hop not in interfaces:
            interfaces.add(record.hop)
            discovery_times.append(received_at)
            curve.append(
                (
                    _global_sent_at(
                        received_at, record.rtt_us, base, shards, shard_sent
                    ),
                    len(interfaces),
                )
            )

    summary = {}
    for result in shard_results:
        for key, value in result.summary.items():
            summary[key] = summary.get(key, 0) + value
    summary["interfaces"] = len(interfaces)

    response_labels = {}
    for result in shard_results:
        for label, count in result.response_labels.items():
            response_labels[label] = response_labels.get(label, 0) + count

    dumps = [result.metrics for result in shard_results]
    merged_metrics: Optional[MetricDump] = None
    if all(dump is not None for dump in dumps):
        merged_metrics = merge_dumps([dump for dump in dumps if dump is not None])
        _rebuild_discovery(merged_metrics, discovery_times)

    return CampaignResult(
        name=name or first.name,
        vantage=first.vantage,
        prober=first.prober,
        pps=pps,
        targets=targets if targets is not None else first.targets,
        sent=sum(shard_sent),
        records=records,
        interfaces=interfaces,
        curve=curve,
        response_labels=response_labels,
        summary=summary,
        # A shard with nothing to send still ends at its pace offset, a
        # time no probe of the campaign has; shard 0 always sends.
        duration_us=max(result.duration_us for result in shard_results if result.sent),
        traces=targets if targets is not None else first.traces,
        metrics=merged_metrics,
    )


def _rebuild_discovery(merged: MetricDump, discovery_times: Sequence[int]) -> None:
    """Recompute ``campaign.discovery`` from the merged record replay.

    The summed per-shard series overcounts: an interface two shards each
    saw first is "novel" twice.  Global novelty is decided above during
    the merged replay, so the series is rebuilt from those timestamps —
    making the dump identical for every shard count, including 1.
    """
    entry = merged.get("campaign.discovery")
    if entry is None:
        return
    bucket_us = int(entry["bucket_us"])
    buckets: Dict[int, int] = {}
    for when in discovery_times:
        bucket = (when // bucket_us) * bucket_us
        buckets[bucket] = buckets.get(bucket, 0) + 1
    entry["points"] = [[bucket, buckets[bucket]] for bucket in sorted(buckets)]
