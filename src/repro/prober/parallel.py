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
shard process inherits it copy-on-write; shards rewind its run-scoped
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
send time (the order the single-process loop hands replies on in), then by
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
only partially sees).  :func:`validate_spec` refuses any other spec by
name before a process starts: sharding returns the single campaign or
nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..netsim.build import InternetConfig, decoupled_dynamics
from ..netsim.engine import pps_interval
from ..netsim.internet import Internet, check_vantage
from ..obs.profiler import NULL_PROFILER, WallProfiler
from .campaign import CampaignResult, emissions_before, run_campaign
from .permutation import ProbeSchedule
from .records import ProbeRecord
from .supervise import ShardJob, resolve_start_method, run_processes
from .yarrp6 import Yarrp6Config


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


def validate_campaign(spec: CampaignSpec, shards: int = 1) -> None:
    """Raise ``ValueError`` for a campaign no prober could run.

    Builds no world: a spec that is not an immutable value all the way
    down (a list of targets, a live ``Random``), an empty target list, an
    unknown vantage, a TTL range the schedule refuses (checked for the
    widest of ``shards`` shards) or a pps the pacer cannot honour fails
    here, with the message the campaign itself would give.  The ``probe``
    command runs it too, before it builds its world.
    """
    _check_immutable(spec, "spec")
    if not spec.targets:
        raise ValueError("no targets")
    # Internet.vantage's check, without building the world to make it.
    check_vantage(spec.vantage, [vantage.name for vantage in spec.internet.vantages])
    config = spec.prober_config()
    ProbeSchedule(
        len(spec.targets),
        config.min_ttl,
        config.max_ttl,
        config.key,
        shard=shards - 1,
        shards=shards,
    )
    pps_interval(spec.pps)


def validate_spec(spec: CampaignSpec, shards: int, processes: int) -> None:
    """Raise ``ValueError`` for anything :func:`run_parallel` must not run.

    Runs in the parent, *before* any process starts: a bad shard or
    process count, a campaign :func:`validate_campaign` refuses, a config
    that already carries a shard identity, and a spec whose shards would
    not merge back into the single campaign.  The last refusal names each
    cause: a ``coupled world`` (a rate limiter can bind, or responses are
    lost at random — each shard would drain its own buckets and draw its
    own losses), ``fill`` or ``neighbourhood`` (a response changes what
    the prober sends next, and a shard sees only its own responses).
    """
    for name, count in (("shards", shards), ("processes", processes)):
        if count < 1:
            raise ValueError("%s must be >= 1: %r" % (name, count))
    validate_campaign(spec, shards)
    config = spec.prober_config()
    if config.shard != 0 or config.shards != 1:
        raise ValueError(
            "spec config must be unsharded (shard=0, shards=1); "
            "run_parallel assigns shard identities: got shard=%r shards=%r"
            % (config.shard, config.shards)
        )
    causes = [
        cause
        for cause, applies in (
            ("coupled world", decoupled_dynamics(spec.internet) != spec.internet),
            ("fill", config.fill_ttls),
            ("neighbourhood", config.neighborhood_ttl is not None),
        )
        if applies
    ]
    if causes:
        raise ValueError(
            "run_parallel shards only a decoupled world's pure walk; "
            "this spec has: %s" % ", ".join(causes)
        )


#: This process's shared world: ``(config, world)``.  Set by
#: :func:`_world_for`; under a fork start method the parent populates it
#: before the first shard process starts, so every shard inherits the
#: built world copy-on-write and only rewinds run state.
_SHARED_WORLD: Optional[Tuple[InternetConfig, Internet]] = None


def _world_for(
    config: InternetConfig, profiler: Optional[WallProfiler] = None
) -> Internet:
    """The process-wide world for ``config``, rewound to run-fresh state.

    Reuses the cached world when its config matches — the fork-inherited
    parent build in shard processes, or the previous call's build when
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
) -> CampaignResult:
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
            profiler=prof,
        )
    if own_profiler:
        prof.validate()
        result = replace(result, wall_profile=prof.export())
    return result


def run_single(
    spec: CampaignSpec, profiler: Optional[WallProfiler] = None
) -> CampaignResult:
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
        profiler=profiler,
    )


def run_parallel(
    spec: CampaignSpec,
    shards: int,
    processes: Optional[int] = None,
    start_method: Optional[str] = None,
    profiler: Optional[WallProfiler] = None,
) -> CampaignResult:
    """Run ``spec`` as ``shards`` cooperating Yarrp6 instances and merge:
    the single campaign of ``spec``, bit for bit.

    ``spec`` must pass :func:`validate_spec`, which refuses before any
    process starts.  ``processes`` caps how many shards run at once, each
    in a process of its own (see :mod:`repro.prober.supervise`; default:
    one per shard, bounded by the CPU count); with one process the shards
    run serially in this process, which produces the identical result —
    the merge is a pure function of the shard results.  A shard process
    that crashes, dies or sends back anything but a result raises
    :class:`~repro.prober.supervise.ShardFailure`.

    With a ``profiler`` the parent records the pipeline phases (world
    build/rewind, the shard processes' start, IPC wait and the bytes each
    shard's outcome crossed the pipe as, merge), each shard process runs
    its own :class:`WallProfiler` (the spec is re-sent with
    ``profile=True``), and the worker exports plus per-shard pickled byte
    counts are folded into the profiler and attached to the merged
    result's ``wall_profile``.  Profiling is observe-only: probe bytes
    and records are identical with and without it.
    """
    prof = profiler if profiler is not None else NULL_PROFILER
    with prof.phase("parallel", shards=shards):
        if processes is None:
            processes = min(shards, os.cpu_count() or 1)
        with prof.phase("validate"):
            validate_spec(spec, shards, processes)
        processes = min(processes, shards)
        bytes_by_shard: Dict[int, int] = {}
        if processes > 1:
            # Shard processes each profile themselves and ship the export home.
            sent = replace(spec, profile=True) if prof.enabled else spec
            if resolve_start_method(start_method) == "fork":
                # Build (or rewind) the shared world BEFORE the first fork:
                # every shard inherits the compiled topology copy-on-write
                # and skips its own build entirely.  Spawned shards start
                # with an empty module and rebuild from the spec's config.
                _world_for(spec.internet, profiler=prof)
            results, bytes_by_shard = run_processes(
                ShardJob(run_shard, sent, shards), processes, start_method, prof
            )
        else:
            # Inline shards share the process's world via _world_for and
            # run_shard profiles each one in place (no IPC, no pickling).
            results = [
                run_shard(spec, shard, shards, profiler=prof) for shard in range(shards)
            ]
        with prof.phase("merge"):
            merged = merge_results(
                results,
                spec.pps,
                name=spec.default_name(),
                targets=len(spec.targets),
            )
    if prof.enabled:
        for shard, result in enumerate(results):
            if result.wall_profile is not None:
                prof.add_worker(shard, result.wall_profile, bytes_by_shard.get(shard, 0))
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
    is handed on, replicating the single-process loop's order.

    Shard ``s`` emits its ``k``-th probe at ``s*base + k*shards*base``
    (stride pacing, one emission per slot until exhaustion), and the
    single-process loop has a slot every ``base``.
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
    for received_at, send_time, shard, record in tagged:
        records.append(record)
        if record.is_time_exceeded and record.hop not in interfaces:
            interfaces.add(record.hop)
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
    )
