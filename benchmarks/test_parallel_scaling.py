"""Parallel runner scaling — wall-clock for 1/2/4 worker processes.

Runs one decoupled-dynamics campaign through ``run_parallel`` at shard
counts 1, 2 and 4, with a real worker pool sized to the shard count, and
records wall-clock, speedup over the single-shard run, and virtual
probes-per-second per core (how many simulated emissions one worker
retires per wall-second — the per-core figure is what the columnar loop
optimizes, independent of how many cores the host happens to have).
The merge is verified against the single-process reference each time, so
the numbers measure the *correct* parallel path, not a diverging
shortcut.

Each run also carries a :class:`repro.obs.WallProfiler`, so the payload
records a per-phase wall-clock breakdown (world build, pool startup,
shard execution, IPC wait, result pickling, merge) per shard count, and
the per-shard result-pickle byte count at the widest pool is a tracked
regression number alongside the wall-clock figures.

Speedup is asserted only when the machine actually has the cores: on the
1-2 core containers CI uses, 4 workers time-slice one core and the run
degenerates to serial-plus-overhead, which is not a regression.  Core
availability is read from the scheduler affinity mask (what this process
may actually use — cgroup-limited CI containers often advertise a large
``os.cpu_count`` while pinning the process to one or two cores).

``REPRO_SMOKE=1`` shrinks the campaign to a few hundred probes and skips
the timing assertions — the CI smoke mode that just proves the pool path
imports, forks, runs and merges.
"""

import os

from repro.netsim import InternetConfig, build_internet, decoupled_dynamics
from repro.obs import Stopwatch, WallProfiler
from repro.prober import CampaignSpec, dumps, run_parallel, run_single

from .emit import emit_json, tracked_entry

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

WORLD = decoupled_dynamics(
    InternetConfig(
        n_edge=24 if SMOKE else 120,
        n_tier2=4,
        cpe_customers_per_isp=40 if SMOKE else 600,
        seed=2018,
    )
)
N_TARGETS = 60 if SMOKE else 1500
PPS = 10_000.0
SHARD_COUNTS = (1, 2, 4)
MIN_SPEEDUP_4W = 1.5


def host_cores() -> int:
    """Cores this process may actually run on.

    ``os.sched_getaffinity`` reflects cgroup/affinity limits (CI
    containers routinely pin to fewer cores than the machine has);
    ``os.cpu_count`` is the fallback where affinity is unsupported.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def record_key(record):
    return (record.target, record.ttl, record.hop, record.rtt_us, record.received_at)


def test_parallel_scaling(save_result):
    built = build_internet(WORLD)
    targets = tuple(
        subnet.prefix.base | 1 for subnet in built.truth.subnets.values()
    )[:N_TARGETS]
    spec = CampaignSpec(internet=WORLD, vantage="EU-NET", targets=targets, pps=PPS)

    reference = run_single(spec)
    reference_dump = dumps(reference)

    cores = host_cores()
    rows = []
    wall = {}
    pps_per_core = {}
    profiles = {}
    for shards in SHARD_COUNTS:
        profiler = WallProfiler()
        watch = Stopwatch()
        merged = run_parallel(
            spec, shards=shards, processes=shards, profiler=profiler
        )
        wall[shards] = watch.elapsed_seconds()
        profiler.validate()
        profiles[shards] = profiler.to_profile_dict()

        assert merged.sent == reference.sent
        assert [record_key(r) for r in merged.records] == [
            record_key(r) for r in reference.records
        ]
        assert merged.interfaces == reference.interfaces
        assert merged.curve == reference.curve
        assert dumps(merged) == reference_dump
        # Virtual emissions retired per wall-second, per worker: the
        # per-core throughput of the campaign inner loop.
        pps_per_core[shards] = merged.sent / wall[shards] / shards
        rows.append(
            "%d worker%s  %7.2fs   speedup %.2fx   %9.0f virtual pps/core"
            "   %7d pickle B"
            % (
                shards,
                "s" if shards > 1 else " ",
                wall[shards],
                wall[1] / wall[shards],
                pps_per_core[shards],
                profiles[shards].get("pickle_bytes_total", 0),
            )
        )

    save_result(
        "parallel_scaling",
        "Parallel runner scaling: %d targets x %d TTLs, %s, pps=%d\n"
        "host cores: %d%s\n\n%s"
        % (
            len(targets),
            16,
            "smoke mode" if SMOKE else "full campaign",
            int(PPS),
            cores,
            " (smoke: timing assertions skipped)" if SMOKE else "",
            "\n".join(rows),
        ),
    )
    # Wall-clock and derived throughput are tracked for regression
    # against the previous run's artifact (see benchmarks.emit CLI); the
    # speedup entries are additionally asserted below when the host has
    # the cores to make them meaningful.
    tracked = {
        "virtual_pps_per_core_1w": tracked_entry(
            pps_per_core[1], direction="higher"
        ),
        "wall_seconds_1w": tracked_entry(wall[1], direction="lower"),
    }
    # Result-pickle traffic per shard at the widest pool: the IPC cost
    # the counting pickler measures.  Growth here means fatter shard
    # results crossing the pipe — a merge-pressure regression the wall
    # clock alone can hide behind core count.
    pickle_total = profiles[SHARD_COUNTS[-1]].get("pickle_bytes_total", 0)
    if pickle_total:
        tracked["pickle_bytes_per_shard"] = tracked_entry(
            pickle_total / SHARD_COUNTS[-1], direction="lower"
        )
    if cores >= 4 and not SMOKE:
        tracked["speedup_4w"] = tracked_entry(
            wall[1] / wall[4], direction="higher", threshold=0.15
        )
    emit_json(
        "parallel_scaling",
        {
            "benchmark": "parallel_scaling",
            "smoke": SMOKE,
            "targets": len(targets),
            "pps": PPS,
            "host_cores": cores,
            "sent": reference.sent,
            "interfaces": len(reference.interfaces),
            "wall_seconds": {str(shards): wall[shards] for shards in SHARD_COUNTS},
            "speedup": {
                str(shards): wall[SHARD_COUNTS[0]] / wall[shards]
                for shards in SHARD_COUNTS
            },
            "virtual_pps_per_core": {
                str(shards): pps_per_core[shards] for shards in SHARD_COUNTS
            },
            # Per-phase wall-clock attribution for every shard count:
            # world build/rewind, pool startup, shard execution, IPC
            # wait, result pickling (with per-shard byte counts), merge.
            "wallclock_profile": {
                str(shards): profiles[shards] for shards in SHARD_COUNTS
            },
            "tracked": tracked,
        },
    )

    if not SMOKE and cores >= 4:
        assert wall[1] / wall[4] >= MIN_SPEEDUP_4W, (
            "expected >= %.1fx speedup at 4 workers on a %d-core host, got %.2fx"
            % (MIN_SPEEDUP_4W, cores, wall[1] / wall[4])
        )
