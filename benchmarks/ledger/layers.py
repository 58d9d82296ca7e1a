"""The traced run: per-layer metrics, measured from outside.

No file under ``src/`` knows about the ledger.  Layers are measured by
timing calls into their public functions and by handing one
:class:`repro.obs.WallProfiler` to the ``profiler=`` arguments the public
API already has.  Every measurement is a span of that profiler (name,
start, end, parent), kept in memory and written at exit with
``write_chrome_trace``; a layer's self time is its span minus children.

One traced child does, in order:

* ``netsim.build`` — the build curve at three world sizes, and the bytes a
  built world retains (``tracemalloc``);
* ``layer-replay`` — the ``yarrp6-walk`` probe stream pushed through each
  layer on its own: permutation, template and scalar crafting,
  ``Internet.probe`` cold and warm, ``Engine`` delivery, response decode;
* ``seeds`` / ``hitlist`` — seed synthesis and the target pipeline;
* one profiled pass of ``yarrp6-walk``, ``baselines-burst``,
  ``yarrp6-shards2`` and ``cli-chain`` (their spans are layer metrics),
  and the untraced and profiled pass of the workload named on the command
  line, whose quotient is ``obs.trace_overhead_ratio``;
* the walk again with a ``MetricsRegistry`` and on the per-event
  ``batch=0`` path, ``run_single`` and serial shards beside the pool run,
  ``analysis`` and ``prober.output`` over the walk's result.

Every pass starts from ``Internet(built)`` or ``fresh_run_state()``.
Simulated outputs are checked along the way: observers must leave the
``.yrp6`` dump byte-identical, both crafting paths must emit the same
bytes, a warm replay must equal the cold one, and the replay must see
exactly the responses the campaign saw.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import (
    AsnResolver,
    build_traces,
    discover_by_path_div,
    discovery_curve,
    interface_graph,
)
from repro.hitlist import build_suite, make_targets
from repro.netsim import Internet, build_internet
from repro.netsim.engine import Engine, pps_interval
from repro.netsim.ratelimit import TokenBucket
from repro.obs import (
    NULL_PROFILER,
    MetricsRegistry,
    WallProfiler,
    wallclock,
    write_chrome_trace,
)
from repro.prober import Yarrp6Config, run_parallel, run_single
from repro.prober.campaign import run_campaign
from repro.prober.encoding import ProbeTemplate, encode_probe
from repro.prober.output import dumps, loads
from repro.prober.permutation import ProbeSchedule
from repro.prober.records import ResponseProcessor
from repro.seeds import build_all_seeds

from . import harness
from .workloads import (
    CAMPAIGN_PPS,
    CHAIN_SOURCES,
    MAX_TTL,
    SHARDS,
    SIZES,
    VANTAGE,
    WORKLOADS,
    Bench,
    CampaignRun,
    Finisher,
    Pass,
    Sizes,
    bench_config,
    internet_stats,
    prepare_bench,
    sample_targets,
    walk_campaign,
)

#: name -> (unit, better): every per-layer metric of the traced run.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "netsim.internet.probe_ns": ("ns/probe", "lower"),
    "netsim.internet.probe_warm_ns": ("ns/probe", "lower"),
    "netsim.internet.path_compile_us": ("us/path", "lower"),
    "netsim.internet.response_ratio": ("ratio", "higher"),
    "prober.records.process_ns": ("ns/response", "lower"),
    "prober.records.decode_fail_ratio": ("ratio", "lower"),
    "prober.encoding.template_ns": ("ns/probe", "lower"),
    "prober.encoding.scalar_ns": ("ns/probe", "lower"),
    "prober.permutation.pair_ns": ("ns/pair", "lower"),
    "netsim.engine.event_ns": ("ns/event", "lower"),
    "netsim.engine.events": ("count", "lower"),
    "netsim.ratelimit.consume_ns": ("ns/decision", "lower"),
    "netsim.ratelimit.denied_ratio": ("ratio", "lower"),
    "prober.campaign.craft_s": ("s", "lower"),
    "prober.campaign.inject_s": ("s", "lower"),
    "prober.campaign.deliver_s": ("s", "lower"),
    "prober.campaign.loop_self_s": ("s", "lower"),
    "prober.campaign.per_event_ratio": ("ratio", "higher"),
    "prober.traceroute.probes_per_s": ("probes/s", "higher"),
    "prober.doubletree.probes_per_s": ("probes/s", "higher"),
    "prober.parallel.pool_start_s": ("s", "lower"),
    "prober.parallel.ipc_wait_s": ("s", "lower"),
    "prober.parallel.merge_s": ("s", "lower"),
    "prober.parallel.world_rewind_s": ("s", "lower"),
    "prober.parallel.shard_run_max_s": ("s", "lower"),
    "prober.parallel.pickle_bytes_per_shard": ("B", "lower"),
    "prober.parallel.speedup_2w": ("ratio", "higher"),
    "prober.parallel.serial_shards_ratio": ("ratio", "lower"),
    "prober.output.dumps_ns_per_row": ("ns/row", "lower"),
    "prober.output.loads_ns_per_row": ("ns/row", "lower"),
    "prober.output.bytes_per_row": ("B", "lower"),
    "netsim.build.s": ("s", "lower"),
    "netsim.build.us_per_router.small": ("us/router", "lower"),
    "netsim.build.us_per_router.bench": ("us/router", "lower"),
    "netsim.build.us_per_router.large": ("us/router", "lower"),
    "netsim.build.bytes_per_router": ("B/router", "lower"),
    "seeds.build_all_s": ("s", "lower"),
    "seeds.items": ("count", "higher"),
    "hitlist.build_suite_s": ("s", "lower"),
    **{
        "hitlist.make_targets_s.%s-z64" % source: ("s", "lower")
        for source in CHAIN_SOURCES
    },
    "analysis.build_traces_ns_per_row": ("ns/row", "lower"),
    "analysis.path_div_s": ("s", "lower"),
    "analysis.interface_graph_s": ("s", "lower"),
    "analysis.discovery_curve_s": ("s", "lower"),
    "cli.world_s": ("s", "lower"),
    "cli.seeds_s": ("s", "lower"),
    "cli.targets_s": ("s", "lower"),
    "cli.probe_s": ("s", "lower"),
    "cli.analyze_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "obs.metrics_overhead_ratio": ("ratio", "lower"),
    "obs.profile_overhead_ratio": ("ratio", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
}

#: Workloads whose profiled pass feeds layer metrics, whatever ``--workload``.
LAYER_PASSES = ("yarrp6-walk", "baselines-burst", "yarrp6-shards2", "cli-chain")

#: The ``seeds`` command's defaults, so ``seeds.build_all_s`` is what one
#: ``seeds`` call of the chain pays after its world rebuild.
SEEDS_DEFAULTS = dict(random_count=10_000, sixgen_budget=20_000, cdn_k32=32, cdn_k256=256)

#: Fresh interpreters timed for ``cli.import_s`` (median).
IMPORT_TRIALS = 3

Sim = Dict[str, Dict[str, Any]]


class Trace:
    """The traced run's one profiler, its checks and its metrics."""

    def __init__(self) -> None:
        self.prof = WallProfiler()
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def span(self, name: str, work: Callable[[], Any]) -> Tuple[float, Any]:
        """Run ``work`` inside a span; (seconds, its value)."""
        index = len(self.prof.spans)
        with self.prof.phase(name):
            value = work()
        return self.prof.spans[index].duration_s(), value

    def check(self, what: str, ok: bool) -> None:
        """One correctness check of the simulated outputs."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_sim(self, what: str, sim: Sim, reference: Optional[Sim]) -> None:
        """Every operation of a pass ran, and matches ``reference``."""
        for name, block in sim.items():
            ok = "error" not in block
            if reference is not None:
                ok = ok and block == reference.get(name)
            self.check("%s: %s" % (what, name), ok)

    def seconds(self, path: str) -> float:
        """Total seconds of the phase rows at ``path`` (0 when absent)."""
        return sum(
            row["total_seconds"]
            for row in self.prof.phase_rows()
            if row["path"] == path
        )


# -- world build ----------------------------------------------------------
def measure_builds(trace: Trace, sizes: Sizes, seed: int) -> Bench:
    """The build curve; returns the bench world for the later passes."""
    layers = trace.layers
    bench_world = None
    with trace.prof.phase("netsim.build"):
        for label, edge, cpe in sizes.build_curve:
            config = bench_config(edge, cpe)
            spent, built = trace.span(label, lambda: build_internet(config))
            layers["netsim.build.us_per_router." + label] = (
                spent * 1e6 / len(built.truth.routers)
            )
            if label == "bench":
                layers["netsim.build.s"] = spent
                bench_world = built

        # Bytes a built world retains, on the smallest size (tracemalloc
        # makes the build several times slower).
        label, edge, cpe = sizes.build_curve[0]

        def traced_build() -> float:
            tracemalloc.start()
            try:
                built = build_internet(bench_config(edge, cpe))
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return retained / len(built.truth.routers)

        _, layers["netsim.build.bytes_per_router"] = trace.span(
            label + ".tracemalloc", traced_build
        )
    if bench_world is None:
        raise ValueError("build_curve has no 'bench' size")
    return Bench(bench_world, sample_targets(bench_world, sizes.targets, seed))


# -- the layer replay -----------------------------------------------------
def _noop() -> None:
    """The replay's delivery callback."""


def replay_walk(trace: Trace, bench: Bench, bucket_decisions: int) -> Dict[str, Any]:
    """Push the ``yarrp6-walk`` probe stream through each layer alone.

    Returns what a campaign on the same stream must reproduce (the
    ``Internet.stats`` counters, the decoded record count) and the host
    seconds of the layers on the campaign's path.
    """
    targets = bench.targets
    interval = pps_interval(CAMPAIGN_PPS)
    config = Yarrp6Config(max_ttl=MAX_TTL)
    source = Internet(bench.built).vantage(VANTAGE).address
    outcome: Dict[str, Any] = {}
    on_path: List[float] = []  # seconds of the layers a campaign runs through

    with trace.prof.phase("layer-replay"):
        schedule = ProbeSchedule(len(targets), config.min_ttl, config.max_ttl, config.key)
        total = len(schedule)

        def permute() -> List[Tuple[int, int]]:
            pairs: List[Tuple[int, int]] = []
            for start in range(0, total, 256):
                pairs.extend(schedule.block(start, min(256, total - start)))
            return pairs

        spent, pairs = trace.span("prober.permutation", permute)
        trace.layers["prober.permutation.pair_ns"] = spent * 1e9 / total
        on_path.append(spent)

        def craft_template() -> List[bytes]:
            template = ProbeTemplate(source, config.instance, config.protocol)
            buffer = template.new_buffer()
            packets = []
            for position, (index, ttl) in enumerate(pairs):
                template.encode_into(
                    buffer, targets[index], ttl, (position * interval) & 0xFFFFFFFF
                )
                packets.append(bytes(buffer))
            return packets

        spent, packets = trace.span("prober.encoding.template", craft_template)
        trace.layers["prober.encoding.template_ns"] = spent * 1e9 / total
        on_path.append(spent)

        def craft_scalar() -> List[bytes]:
            return [
                encode_probe(
                    source, targets[index], ttl,
                    elapsed=(position * interval) & 0xFFFFFFFF,
                    instance=config.instance, protocol=config.protocol,
                )
                for position, (index, ttl) in enumerate(pairs)
            ]

        spent, scalar_packets = trace.span("prober.encoding.scalar", craft_scalar)
        trace.layers["prober.encoding.scalar_ns"] = spent * 1e9 / total
        trace.check("replay: template bytes == scalar bytes", packets == scalar_packets)
        del scalar_packets

        internet = Internet(bench.built)

        def inject() -> List[Any]:
            probe = internet.probe
            return [
                probe(packet, position * interval)
                for position, packet in enumerate(packets)
            ]

        spent, responses = trace.span("netsim.internet.probe", inject)
        trace.layers["netsim.internet.probe_ns"] = spent * 1e9 / total
        on_path.append(spent)
        answered = [
            (position * interval + response.delay_us, position, response.data)
            for position, response in enumerate(responses)
            if response is not None
        ]
        trace.layers["netsim.internet.response_ratio"] = len(answered) / total
        outcome["stats"] = internet_stats(internet)

        internet.fresh_run_state()  # full rewind; the path cache survives
        spent, warm = trace.span("netsim.internet.probe_warm", inject)
        trace.layers["netsim.internet.probe_warm_ns"] = spent * 1e9 / total
        trace.check(
            "replay: warm pass after fresh_run_state() == cold pass",
            [(r.delay_us, r.data) if r else None for r in warm]
            == [(r.delay_us, r.data) if r else None for r in responses],
        )
        del warm, responses

        cold = Internet(bench.built)
        spent, _ = trace.span(
            "netsim.internet.path_compile",
            lambda: [cold.trace_path(VANTAGE, target) for target in targets],
        )
        trace.layers["netsim.internet.path_compile_us"] = spent * 1e6 / len(targets)

        def deliver() -> None:
            engine = Engine()
            for arrival, _, _ in answered:
                engine.schedule_at(arrival, _noop)
            engine.run()

        spent, _ = trace.span("netsim.engine", deliver)
        trace.layers["netsim.engine.events"] = len(answered)
        trace.layers["netsim.engine.event_ns"] = spent * 1e9 / len(answered)
        on_path.append(spent)

        # Arrival order with FIFO ties: the order the engine delivers in.
        answered.sort(key=lambda item: item[:2])
        processor = ResponseProcessor(config.instance)

        def decode() -> None:
            process = processor.process
            for arrival, position, data in answered:
                process(data, arrival, position + 1)

        spent, _ = trace.span("prober.records", decode)
        trace.layers["prober.records.process_ns"] = spent * 1e9 / len(answered)
        trace.layers["prober.records.decode_fail_ratio"] = (
            processor.decode_failures / processor.received
        )
        on_path.append(spent)
        outcome["records"] = len(processor.records)

        # A mixed allow/deny timeline: offered load twice the refill rate.
        bucket = TokenBucket(rate=1000.0, burst=50.0)

        def decide() -> None:
            consume = bucket.consume
            for now in range(0, bucket_decisions * 500, 500):
                consume(now)

        spent, _ = trace.span("netsim.ratelimit", decide)
        trace.layers["netsim.ratelimit.consume_ns"] = spent * 1e9 / bucket_decisions
        trace.check(
            "replay: token bucket timeline is mixed",
            0 < bucket.denied < bucket_decisions,
        )

    outcome["on_path_s"] = sum(on_path)
    return outcome


# -- seeds and hitlist ----------------------------------------------------
def measure_hitlist(trace: Trace, bench: Bench) -> None:
    spent, seeds = trace.span(
        "seeds", lambda: build_all_seeds(bench.built, **SEEDS_DEFAULTS)
    )
    trace.layers["seeds.build_all_s"] = spent
    trace.layers["seeds.items"] = sum(len(seed_list) for seed_list in seeds.values())
    items = {name: seed_list.items for name, seed_list in seeds.items()}

    with trace.prof.phase("hitlist"):
        spent, _ = trace.span("build_suite", lambda: build_suite(items, levels=(48, 64)))
        trace.layers["hitlist.build_suite_s"] = spent
        for source in CHAIN_SOURCES:
            spent, _ = trace.span(
                "make_targets", lambda: make_targets(source, items[source], level=64)
            )
            trace.layers["hitlist.make_targets_s.%s-z64" % source] = spent


# -- workload passes ------------------------------------------------------
def run_pass(trace: Trace, name: str, inputs: Any, traced: bool) -> Tuple[float, Pass]:
    """One pass of a workload under a root span; (seconds, the pass)."""
    this = Pass(trace.prof if traced else NULL_PROFILER)
    root = name if traced else "untraced:" + name
    spent, _ = trace.span(root, lambda: WORKLOADS[name].run(inputs, this))
    return spent, this


def sha_of(run: Finisher) -> Optional[str]:
    return run().get("sha256")


def measure_walk_observers(
    trace: Trace, bench: Bench, bare_s: float, bare: CampaignRun, replayed: Dict[str, Any]
) -> None:
    """The walk under a MetricsRegistry and on the per-event path, then
    ``analysis`` and ``prober.output`` over the bare walk's result."""
    layers = trace.layers
    reference = sha_of(bare)
    trace.check(
        "replay: Internet.stats == the campaign's on the same stream",
        replayed["stats"] == internet_stats(bare.internet),
    )
    trace.check(
        "replay: decoded records == the campaign's on the same stream",
        replayed["records"] == len(bare.result.records),
    )

    spent, run = trace.span(
        "metrics:yarrp6-walk",
        lambda: walk_campaign(bench, NULL_PROFILER, metrics=MetricsRegistry()),
    )
    layers["obs.metrics_overhead_ratio"] = spent / bare_s
    trace.check("walk with MetricsRegistry: dump unchanged", sha_of(run) == reference)

    def per_event() -> CampaignRun:
        internet = Internet(bench.built)
        return CampaignRun(
            run_campaign(
                internet, VANTAGE, bench.targets, "yarrp6", CAMPAIGN_PPS,
                Yarrp6Config(max_ttl=MAX_TTL), batch=0,
            ),
            internet,
        )

    spent, run = trace.span("per-event:yarrp6-walk", per_event)
    layers["prober.campaign.per_event_ratio"] = spent / bare_s
    trace.check("walk with batch=0: dump unchanged", sha_of(run) == reference)

    layers["prober.campaign.craft_s"] = trace.seconds("yarrp6-walk/campaign.run/emit.craft")
    layers["prober.campaign.inject_s"] = trace.seconds("yarrp6-walk/campaign.run/emit.inject")
    layers["prober.campaign.deliver_s"] = trace.seconds(
        "yarrp6-walk/campaign.run/recv.deliver"
    )
    layers["prober.campaign.loop_self_s"] = (
        trace.seconds("yarrp6-walk/campaign.run") - replayed["on_path_s"]
    )

    result = bare.result
    rows = len(result.records)

    with trace.prof.phase("analysis"):
        spent, traces = trace.span("build_traces", lambda: build_traces(result.records))
        layers["analysis.build_traces_ns_per_row"] = spent * 1e9 / rows
        truth = bench.built.truth
        resolver = AsnResolver(truth.registry, truth.equivalent_asns)
        layers["analysis.path_div_s"], _ = trace.span(
            "path_div", lambda: discover_by_path_div(traces, resolver)
        )
        layers["analysis.interface_graph_s"], _ = trace.span(
            "interface_graph", lambda: interface_graph(traces)
        )
        layers["analysis.discovery_curve_s"], _ = trace.span(
            "discovery_curve", lambda: discovery_curve(result)
        )

    with trace.prof.phase("prober.output"):
        spent, text = trace.span("dumps", lambda: dumps(result))
        layers["prober.output.dumps_ns_per_row"] = spent * 1e9 / rows
        layers["prober.output.bytes_per_row"] = len(text.encode()) / rows
        spent, loaded = trace.span("loads", lambda: loads(text))
        layers["prober.output.loads_ns_per_row"] = spent * 1e9 / rows
        trace.check("output: loads(dumps(result)) keeps every row", len(loaded.records) == rows)


def measure_burst(trace: Trace, sim: Sim) -> None:
    layers = trace.layers
    for op, layer in (("sequential", "traceroute"), ("doubletree", "doubletree")):
        layers["prober.%s.probes_per_s" % layer] = sim[op]["sent"] / trace.seconds(
            "baselines-burst/prober." + layer
        )
    stats = [block["stats"] for block in sim.values()]
    layers["netsim.ratelimit.denied_ratio"] = sum(
        block["rate_limited"] for block in stats
    ) / sum(block["probes"] for block in stats)


def measure_shards(trace: Trace, spec: Any, pool_s: float, pooled: Finisher) -> None:
    """``run_single`` and serial shards beside the profiled pool run."""
    layers = trace.layers
    reference = sha_of(pooled)
    single_s, single = trace.span("untraced:run_single", lambda: run_single(spec))
    trace.check("shards: merged dump == run_single's", sha_of(CampaignRun(single)) == reference)
    serial_s, serial = trace.span(
        "untraced:serial-shards",
        lambda: run_parallel(spec, shards=SHARDS, processes=1),
    )
    trace.check("shards: serial dump == run_single's", sha_of(CampaignRun(serial)) == reference)
    layers["prober.parallel.speedup_2w"] = single_s / pool_s
    layers["prober.parallel.serial_shards_ratio"] = serial_s / single_s

    root = "yarrp6-shards2/parallel/"
    layers["prober.parallel.pool_start_s"] = trace.seconds(root + "pool.start")
    layers["prober.parallel.ipc_wait_s"] = trace.seconds(root + "shards/ipc.wait")
    layers["prober.parallel.merge_s"] = trace.seconds(root + "merge")
    workers = trace.prof.to_profile_dict().get("workers", [])

    def worker_seconds(path: str) -> float:
        return max(
            sum(row["total_seconds"] for row in worker["phases"] if row["path"] == path)
            for worker in workers
        )

    # The slower shard sets the pool's time; rewinds sit on that path too.
    layers["prober.parallel.shard_run_max_s"] = worker_seconds("shard.run")
    layers["prober.parallel.world_rewind_s"] = trace.seconds(
        root + "world.rewind"
    ) + worker_seconds("shard.run/world.rewind")
    layers["prober.parallel.pickle_bytes_per_shard"] = (
        sum(worker["pickle_bytes"] for worker in workers) / SHARDS
    )


def measure_cli(trace: Trace) -> None:
    for command in ("world", "seeds", "targets", "probe", "analyze"):
        trace.layers["cli.%s_s" % command] = trace.seconds("cli-chain/cli." + command)

    def fresh_import() -> float:
        started = wallclock.now()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli.main"], check=True, cwd=harness.ROOT
        )
        return wallclock.now() - started

    _, trials = trace.span(
        "cli.import", lambda: [fresh_import() for _ in range(IMPORT_TRIALS)]
    )
    trace.layers["cli.import_s"] = statistics.median(trials)


# -- the traced child -----------------------------------------------------
def run_traced(
    workload: str, seed: int, sizes_name: str, trace_dir: Optional[str]
) -> Dict[str, Any]:
    """The whole traced suite; called in the child process."""
    sizes = SIZES[sizes_name]
    expected = harness.load_expected()
    trace = Trace()

    bench = measure_builds(trace, sizes, seed)
    replayed = replay_walk(trace, bench, sizes.bucket_decisions)
    measure_hitlist(trace, bench)

    overhead: Dict[str, float] = {}  # traced / untraced seconds of a pair
    walk_s = 0.0
    with harness.scratch_dir() as scratch:
        for name, spec in WORKLOADS.items():
            if name not in LAYER_PASSES and name != workload:
                continue
            if spec.prepare is prepare_bench:
                inputs = bench  # the world is already built
            else:
                _, inputs = trace.span(
                    "setup:" + name, lambda: spec.prepare(sizes, seed, scratch)
                )
            paired = name in (workload, "yarrp6-walk")
            if paired:
                untraced_s, untraced = run_pass(trace, name, inputs, traced=False)
            traced_s, traced = run_pass(trace, name, inputs, traced=True)
            sim = traced.sim()
            trace.check_sim(
                "traced " + name, sim, harness.pinned_sim(expected, name, seed, sizes_name)
            )
            if paired:
                trace.check_sim("untraced %s == traced" % name, untraced.sim(), sim)
                overhead[name] = traced_s / untraced_s
            if name == "yarrp6-walk":
                walk_s = untraced_s
                measure_walk_observers(trace, bench, walk_s, untraced.pending["yarrp6"], replayed)
            elif name == "baselines-burst":
                measure_burst(trace, sim)
            elif name == "yarrp6-shards2":
                measure_shards(trace, inputs, traced_s, traced.pending["run_parallel"])
            elif name == "cli-chain":
                measure_cli(trace)

    layers = trace.layers
    layers["obs.profile_overhead_ratio"] = overhead["yarrp6-walk"]
    layers["obs.trace_overhead_ratio"] = overhead[workload]

    trace.prof.validate()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        write_chrome_trace(os.path.join(trace_dir, "trace_%s.json" % workload), trace.prof)
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise RuntimeError("traced run produced no value for: %s" % ", ".join(missing))
    return {
        "layers": {name: layers[name] for name in PER_LAYER},
        "attempted": trace.attempted,
        "failed": len(trace.failures),
        "failures": trace.failures,
        # Acceptance figure: the replayed layers against the bare walk.
        "replay_share": replayed["on_path_s"] / walk_s,
        "walk_wall_s": walk_s,
    }


# -- parent side ----------------------------------------------------------
def run_trace_child(workload: str, seed: int, sizes: str = "full") -> Dict[str, Any]:
    """The traced suite in a fresh child; a crash is one failed operation."""
    report = harness.run_child(workload, seed, sizes, trace_dir=harness.RESULTS_DIR)
    if report is None:
        return {"layers": {}, "attempted": 1, "failed": 1,
                "failures": ["the traced child crashed"]}
    return report


def format_layers(report: Dict[str, Any]) -> str:
    """Every per-layer metric by name, with its unit."""
    lines = [
        "%-44s %16.4f %s" % (name, value, PER_LAYER[name][0])
        for name, value in report["layers"].items()
    ]
    if "replay_share" in report:
        lines.append(
            "replayed layers cover %.0f%% of the untraced yarrp6-walk (%.3f s)"
            % (100 * report["replay_share"], report["walk_wall_s"])
        )
    lines.append(
        "%d/%d checks of the simulated outputs ok"
        % (report["attempted"] - report["failed"], report["attempted"])
    )
    lines.extend("  FAILED " + what for what in report["failures"])
    return "\n".join(lines)
