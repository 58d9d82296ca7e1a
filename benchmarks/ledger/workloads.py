"""Sizes and the five ledger workloads.

Every workload is a closed loop with one caller: the next operation
starts when the previous one returns.  ``prepare`` is the untimed
set-up (world build, target draw, temp paths); ``run`` makes one
:class:`Pass` — the timed region is the sum of its operations — and
leaves, per operation, a *finisher* that computes the operation's exact
``sim`` block once the clock has stopped, so hashing a ``.yrp6`` dump
for the correctness check is never billed to the program.  An operation
that raises (or a CLI command that returns non-zero) is a failed
operation, not a crashed benchmark.

Fresh state per pass: a second campaign on the same ``Internet`` is a
*different* run (``reset_dynamics`` lets the loss RNG continue), so each
campaign below starts from ``Internet(built)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import random
import re
import resource
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cli.main import main as cli_main
from repro.netsim import Internet, InternetConfig, build_internet, decoupled_dynamics
from repro.netsim.build import BuiltInternet
from repro.netsim.internet import InternetStats
from repro.obs import NULL_PROFILER, WallProfiler, wallclock
from repro.prober import (
    CampaignSpec,
    run_doubletree,
    run_parallel,
    run_sequential,
    run_single,
    run_yarrp6,
)
from repro.prober.campaign import CampaignResult
from repro.prober.output import dumps

from ..conftest import BENCH_CONFIG, CAMPAIGN_PPS, MAX_TTL
from .calibrate import spin

#: The vantage every workload probes from.
VANTAGE = "EU-NET"

#: ``baselines-burst`` rate: the Fig. 5 regime where sequential probing
#: drains premise-hop token buckets.
BURST_PPS = 20_000.0

#: ``yarrp6-fill`` walks TTLs 1..8 and lets fill mode recover the rest.
FILL_MAX_TTL = 8

#: Shards and pool workers of ``yarrp6-shards2`` (this host has 2 cores;
#: the ledger never runs more workers than that).
SHARDS = 2

#: Seed sources ``cli-chain`` runs seeds -> targets -> probe -> analyze for.
CHAIN_SOURCES = ("dnsdb",)


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the ledger, in one place."""

    name: str
    #: Bench world: ``InternetConfig.n_edge`` / ``cpe_customers_per_isp``.
    edge: int
    cpe: int
    #: Leaf /64s drawn as campaign targets.
    targets: int
    #: What ``cli-chain`` passes to ``world --edge/--cpe``.
    chain_edge: int
    chain_cpe: int
    #: A child repeats its timed region until it has made ``min_passes``
    #: passes and measured ``pass_seconds``; it reports their median.
    min_passes: int
    pass_seconds: float
    #: (label, edge, cpe) world sizes of the traced build curve.
    build_curve: Tuple[Tuple[str, int, int], ...]
    #: Decisions in the traced ``TokenBucket.consume`` loop.
    bucket_decisions: int


#: Sized for the host the ledger was defined on (2 cores, other tenants
#: slow it by 1.3-1.7x for seconds to minutes at a time): an operation
#: takes 0.2-0.6 s, so that the calibration spins around it sit close to
#: what they correct, and the contract's 4 + 22 x 5 runs take about half
#: its time cap.
FULL = Sizes(
    name="full",
    edge=BENCH_CONFIG.n_edge,
    cpe=BENCH_CONFIG.cpe_customers_per_isp,
    targets=250,
    chain_edge=40,
    chain_cpe=2000,
    min_passes=3,
    pass_seconds=2.0,
    build_curve=(("small", 50, 2500), ("bench", 200, 10_000), ("large", 800, 40_000)),
    bucket_decisions=200_000,
)

#: Tier-1 test sizes: a few seconds for all five workloads.
SMOKE = Sizes(
    name="smoke",
    edge=24,
    cpe=40,
    targets=60,
    chain_edge=24,
    chain_cpe=40,
    min_passes=1,
    pass_seconds=0.0,
    build_curve=(("small", 12, 20), ("bench", 24, 40), ("large", 48, 80)),
    bucket_decisions=2000,
)

SIZES = {sizes.name: sizes for sizes in (FULL, SMOKE)}

#: The world never depends on ``--seed``: across world seeds the same
#: campaign draws 31k-42k responses to 48k probes, which no bound could
#: tell from a regression.  The seed draws the targets.
WORLD_SEED = BENCH_CONFIG.seed


def bench_config(edge: int, cpe: int) -> InternetConfig:
    """``benchmarks/conftest.py::BENCH_CONFIG`` at this size."""
    return dataclasses.replace(BENCH_CONFIG, n_edge=edge, cpe_customers_per_isp=cpe)


def sample_targets(built: BuiltInternet, count: int, seed: int) -> Tuple[int, ...]:
    """``::1`` in ``count`` leaf /64s drawn from the truth (insertion order)."""
    subnets = list(built.truth.subnets.values())
    drawn = random.Random(seed).sample(subnets, min(count, len(subnets)))
    return tuple(subnet.prefix.base | 1 for subnet in drawn)


# -- sim blocks -----------------------------------------------------------
class CampaignRun:
    """A finished campaign; calling it gives its exact simulated statistics."""

    def __init__(self, result: CampaignResult, internet: Optional[Internet] = None) -> None:
        self.result = result
        #: The world the campaign ran on (None when workers owned it).
        self.internet = internet

    def __call__(self) -> Dict[str, Any]:
        result = self.result
        block: Dict[str, Any] = {
            "sent": result.sent,
            "responses": len(result.records),
            "interfaces": len(result.interfaces),
            "duration_us": result.duration_us,
            "sha256": hashlib.sha256(dumps(result).encode()).hexdigest(),
        }
        if self.internet is not None:
            block["stats"] = internet_stats(self.internet)
        return block


def internet_stats(internet: Internet) -> Dict[str, int]:
    """The ``Internet.stats`` counters of the run just finished."""
    return {name: getattr(internet.stats, name) for name in InternetStats.__slots__}


#: A finisher: computes an operation's ``sim`` block after the clock stops.
Finisher = Callable[[], Dict[str, Any]]


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Pass:
    """One pass of a workload: its operations, timed one at a time.

    The timed region of a pass is the sum of its operations.  With
    ``calibrated`` a spin of the calibration kernel runs before the first
    operation and after each one (between operations, so never inside the
    timed region); ``prof`` is what the operations hand to the
    ``profiler=`` arguments of the public API.
    """

    def __init__(self, prof: WallProfiler = NULL_PROFILER, calibrated: bool = False) -> None:
        self.prof = prof
        self.pending: Dict[str, Finisher] = {}
        #: Per operation, in order: raw host wall and CPU seconds.
        self.walls: List[float] = []
        self.cpus: List[float] = []
        #: ``len(walls) + 1`` spins when calibrated (else none): spins[i]
        #: and spins[i+1] bracket operation i.
        self.spins: List[float] = [spin()] if calibrated else []

    def attempt(self, name: str, operation: Callable[[], Finisher]) -> None:
        """Run and time one operation; if it raises, it is a failed one."""
        cpu_before = cpu_seconds()
        started = wallclock.now()
        try:
            self.pending[name] = operation()
        except (Exception, SystemExit) as error:  # SystemExit: argparse in the CLI
            traceback.print_exc()
            block = {"error": "%s: %s" % (type(error).__name__, error)}
            self.pending[name] = lambda: block
        self.walls.append(wallclock.now() - started)
        self.cpus.append(cpu_seconds() - cpu_before)
        if self.spins:
            self.spins.append(spin())

    def sim(self) -> Dict[str, Dict[str, Any]]:
        """Operation name -> exact simulated statistics (after the clock)."""
        return {name: finisher() for name, finisher in self.pending.items()}


def probes_sent(sim: Dict[str, Dict[str, Any]]) -> int:
    """Virtual probes a pass sent, over all its operations."""
    return sum(block.get("sent", 0) for block in sim.values())


# -- campaign workloads ---------------------------------------------------
@dataclass
class Bench:
    """What a campaign workload receives: a built world and its targets."""

    built: BuiltInternet
    targets: Tuple[int, ...]


def prepare_bench(sizes: Sizes, seed: int, scratch: str) -> Bench:
    built = build_internet(bench_config(sizes.edge, sizes.cpe))
    return Bench(built, sample_targets(built, sizes.targets, seed))


def _campaign(runner: Any, bench: Bench, prof: WallProfiler, **kwargs: Any) -> CampaignRun:
    internet = Internet(bench.built)
    result = runner(internet, VANTAGE, bench.targets, profiler=prof, **kwargs)
    return CampaignRun(result, internet)


def walk_campaign(bench: Bench, prof: WallProfiler, **observers: Any) -> CampaignRun:
    """The ``yarrp6-walk`` campaign (``observers``: ``metrics=``/``tracer=``)."""
    return _campaign(
        run_yarrp6, bench, prof, pps=CAMPAIGN_PPS, max_ttl=MAX_TTL, **observers
    )


def run_walk(bench: Bench, this: Pass) -> None:
    this.attempt("yarrp6", lambda: walk_campaign(bench, this.prof))


def run_fill(bench: Bench, this: Pass) -> None:
    this.attempt(
        "yarrp6-fill",
        lambda: _campaign(
            run_yarrp6, bench, this.prof, pps=CAMPAIGN_PPS, max_ttl=FILL_MAX_TTL, fill=True
        ),
    )


def run_burst(bench: Bench, this: Pass) -> None:
    for name, phase, runner in (
        ("sequential", "prober.traceroute", run_sequential),
        ("doubletree", "prober.doubletree", run_doubletree),
    ):
        this.attempt(name, lambda: _burst(runner, phase, bench, this.prof))


def _burst(runner: Any, phase: str, bench: Bench, prof: WallProfiler) -> CampaignRun:
    with prof.phase(phase):
        return _campaign(runner, bench, prof, pps=BURST_PPS)


def prepare_shards(sizes: Sizes, seed: int, scratch: str) -> CampaignSpec:
    config = decoupled_dynamics(bench_config(sizes.edge, sizes.cpe))
    targets = sample_targets(build_internet(config), sizes.targets, seed)
    spec = CampaignSpec(config, VANTAGE, targets, pps=CAMPAIGN_PPS)
    # One-target campaign: builds the process-shared world run_parallel
    # forks from, so the build is set-up and not part of the timed pool path.
    run_single(dataclasses.replace(spec, targets=targets[:1]))
    return spec


def run_shards(spec: CampaignSpec, this: Pass) -> None:
    this.attempt(
        "run_parallel",
        lambda: CampaignRun(
            run_parallel(spec, shards=SHARDS, processes=SHARDS, profiler=this.prof)
        ),
    )


# -- the CLI chain --------------------------------------------------------
#: (operation name, argv, artifact whose bytes are hashed; None = stdout)
Command = Tuple[str, List[str], Optional[str]]

_PROBE_LINE = re.compile(r"(\d+) probes, (\d+) responses, (\d+) interfaces")


def prepare_chain(sizes: Sizes, seed: int, scratch: str) -> List[Command]:
    def path(name: str) -> str:
        return os.path.join(scratch, name)

    world = path("world.json")
    commands: List[Command] = [
        (
            "world",
            ["world", "--seed", str(WORLD_SEED), "--edge", str(sizes.chain_edge),
             "--cpe", str(sizes.chain_cpe), "--out", world],
            world,
        )
    ]
    for source in CHAIN_SOURCES:
        seeds, targets, results = (
            path("%s.%s" % (source, kind)) for kind in ("seeds", "targets", "yrp6")
        )
        commands += [
            ("seeds." + source,
             ["seeds", "--world", world, "--source", source, "--out", seeds], seeds),
            ("targets." + source,
             ["targets", "--seeds", seeds, "--level", "64", "--out", targets], targets),
            ("probe." + source,
             ["probe", "--world", world, "--vantage", VANTAGE, "--targets", targets,
              "--pps", "%g" % CAMPAIGN_PPS, "--fill", "--out", results], results),
            ("analyze." + source,
             ["analyze", "--results", results, "--world", world, "--subnets", "--graph"],
             None),
        ]
    return commands


def _cli(argv: List[str], artifact: Optional[str], prof: WallProfiler) -> Finisher:
    out = io.StringIO()
    with prof.phase("cli." + argv[0]):
        code = cli_main(argv, out)
    text = out.getvalue()

    def finisher() -> Dict[str, Any]:
        block: Dict[str, Any] = {"rc": code}
        if code != 0:
            block["error"] = text.strip()[-200:]
            return block
        if artifact is None:
            data = text.encode()
        else:
            with open(artifact, "rb") as source:
                data = source.read()
        block["sha256"] = hashlib.sha256(data).hexdigest()
        match = _PROBE_LINE.search(text)
        if match:
            block["sent"], block["responses"], block["interfaces"] = map(
                int, match.groups()
            )
        return block

    return finisher


def run_chain(commands: List[Command], this: Pass) -> None:
    for name, argv, artifact in commands:
        this.attempt(name, lambda: _cli(argv, artifact, this.prof))


# -- the table ------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: Why this workload exists (echoed into ``BENCHMARK.json``).
    why: str
    prepare: Callable[[Sizes, int, str], Any]
    run: Callable[[Any, Pass], None]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "yarrp6-walk",
            "pure randomized walk on the rate-limited world: the columnar block "
            "path (next_probes, ProbeTemplate, Internet.probe, schedule_at, receive)",
            prepare_bench,
            run_walk,
        ),
        Workload(
            "yarrp6-fill",
            "fill mode forces the per-event reference loop (next_probe, scalar "
            "encode_probe, one engine event per probe): same layers used the other way",
            prepare_bench,
            run_fill,
        ),
        Workload(
            "baselines-burst",
            "sequential then Doubletree at 20 kpps drain premise-hop token buckets: "
            "ratelimit deny path and stateful probers, half the responses per probe",
            prepare_bench,
            run_burst,
        ),
        Workload(
            "yarrp6-shards2",
            "run_parallel with 2 shards on 2 pool workers over a decoupled world: "
            "the only workload where pool start, result pickling, ipc wait and merge work",
            prepare_shards,
            run_shards,
        ),
        Workload(
            "cli-chain",
            "in-process world, seeds, targets, probe --fill, analyze commands: world "
            "rebuilds, seed synthesis, hitlist, .yrp6 output and analysis dominate",
            prepare_chain,
            run_chain,
        ),
    )
}
