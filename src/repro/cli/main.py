"""``repro-sim`` — the command-line face of the library.

Subcommands compose into the paper's workflow::

    repro-sim world --edge 120 --cpe 2000 --out world.json
    repro-sim seeds --world world.json --source tum --out tum.seeds
    repro-sim targets --seeds tum.seeds --level 64 --out tum.targets
    repro-sim probe --world world.json --vantage EU-NET \\
                    --targets tum.targets --pps 1000 --fill --out run.yrp6
    repro-sim analyze --results run.yrp6 --world world.json --subnets

Seed and target files hold one address or ``addr/len`` prefix per line
(``#`` comments allowed); probe output uses the ``.yrp6`` row format.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, List, Optional, Sequence, TextIO, TypeVar

from .. import __version__
from ..addrs import address, format_address
from ..addrs.prefix import Prefix
from ..hitlist import make_targets
from ..hitlist.transform import SeedItem
from ..netsim import (
    Internet,
    InternetConfig,
    build_internet,
    collector_paused,
    validate_config,
)
from ..obs import (
    NULL_PROFILER,
    MetricsRegistry,
    Stopwatch,
    WallProfiler,
    build_manifest,
    read_manifest,
    write_chrome_trace,
    write_manifest,
)
from ..prober import PROBERS, CampaignSpec, Yarrp6Config, run_campaign, validate_campaign
from ..prober.output import load_campaign, save_campaign
from ..seeds import SOURCES
from .worldcfg import load_config, save_config


class InputError(ValueError):
    """A seed or target file that cannot be used: a line that is not an
    address or prefix (``path:lineno: reason: 'offending text'``) or bytes
    that are not text (``path: reason``)."""


T = TypeVar("T")


def _seed_item(line: str) -> SeedItem:
    return Prefix.parse(line) if "/" in line else address.parse(line)


def _target(line: str) -> int:
    if "/" in line:
        raise ValueError("a prefix, not a target address")
    return address.parse(line)


def _read_items(path: str, parse: Callable[[str], T]) -> List[T]:
    """Each non-blank, non-``#`` line of ``path`` through ``parse``; a
    line it refuses is an :class:`InputError` naming the line."""
    items: List[T] = []
    with open(path) as source:
        try:
            for lineno, line in enumerate(source, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    items.append(parse(line))
                except ValueError as error:
                    raise InputError(
                        "%s:%d: %s: %r" % (path, lineno, error, line)
                    ) from None
        except UnicodeDecodeError as error:  # raised by the read, not a line
            raise InputError("%s: %s" % (path, error)) from None
    return items


def _write_items(path: str, items: Sequence[SeedItem]) -> None:
    with open(path, "w") as sink:
        for item in items:
            if isinstance(item, Prefix):
                sink.write("%s\n" % item)
            else:
                sink.write("%s\n" % format_address(item))


def cmd_world(args: argparse.Namespace, out: TextIO) -> int:
    config = InternetConfig(
        seed=args.seed,
        n_edge=args.edge,
        cpe_customers_per_isp=args.cpe,
    )
    validate_config(config)  # a refused world leaves no file behind
    with open(args.out, "w") as sink:
        save_config(sink, config)
    built = build_internet(config)
    out.write(
        "world written to %s: %d ASes, %d routers, %d leaf /64s, %d hosts\n"
        % (
            args.out,
            len(built.truth.ases),
            len(built.truth.routers),
            len(built.truth.subnets),
            sum(len(subnet.host_iids) for subnet in built.truth.subnets.values()),
        )
    )
    return 0


def _load_world(path: str):
    with open(path) as source:
        return build_internet(load_config(source))


def cmd_seeds(args: argparse.Namespace, out: TextIO) -> int:
    build = SOURCES.get(args.source)
    if build is None:
        out.write(
            "unknown source %r; available: %s\n"
            % (args.source, ", ".join(sorted(SOURCES)))
        )
        return 2
    # Every knob is checked before the world file is read.
    for flag, value, least in (
        ("--random-count", args.random_count, 0),
        ("--sixgen-budget", args.sixgen_budget, 0),
        ("--cdn-k32", args.cdn_k32, 1),
        ("--cdn-k256", args.cdn_k256, 1),
    ):
        if value < least:
            raise ValueError("%s must be >= %d, not %d" % (flag, least, value))
    seed_list = build(
        _load_world(args.world),
        random_count=args.random_count,
        sixgen_budget=args.sixgen_budget,
        cdn_k32=args.cdn_k32,
        cdn_k256=args.cdn_k256,
    )
    _write_items(args.out, seed_list.items)
    out.write(
        "%s: %d items written to %s\n" % (seed_list.name, len(seed_list), args.out)
    )
    return 0


def cmd_targets(args: argparse.Namespace, out: TextIO) -> int:
    items = _read_items(args.seeds, _seed_item)
    target_set = make_targets("cli", items, level=args.level, method=args.method)
    _write_items(args.out, list(target_set.addresses))
    out.write(
        "%d targets (%s, %s) written to %s\n"
        % (len(target_set), target_set.transformation, target_set.synthesis, args.out)
    )
    return 0


def cmd_probe(args: argparse.Namespace, out: TextIO) -> int:
    targets = _read_items(args.targets, _target)
    if not targets:
        out.write("no targets in %s\n" % args.targets)
        return 2
    if args.fill and args.prober != "yarrp6":
        out.write("--fill requires the yarrp6 prober (fill probes extend Yarrp6's own walk)\n")
        return 2
    # The stopwatch is the run's only wall-clock read (top-level boundary,
    # reporting only — see repro.obs.wallclock); it never touches the sim.
    stopwatch = Stopwatch() if args.metrics else None
    with open(args.world) as source:
        world_config = load_config(source)
    prober_kwargs = {"max_ttl": args.max_ttl}
    if args.fill:
        prober_kwargs["fill"] = True
    # Before any world is built: a TTL range, vantage or pps the campaign
    # would refuse is refused now, with the campaign's own message, and so
    # is a config the chosen prober refuses (constructing one sends nothing).
    validate_campaign(
        CampaignSpec(
            world_config, args.vantage, tuple(targets), args.pps, Yarrp6Config(**prober_kwargs)
        )
    )
    prober_config = PROBERS[args.prober].Config(**prober_kwargs)
    PROBERS[args.prober](0, targets, prober_config)

    # Profiling is observe-only: the .yrp6 bytes are identical with and
    # without it.
    profiler = WallProfiler() if args.profile else NULL_PROFILER
    with profiler.phase("probe", prober=args.prober):
        internet = Internet.from_config(world_config, profiler=profiler)
        result = run_campaign(
            internet,
            args.vantage,
            targets,
            args.prober,
            args.pps,
            prober_config,
            metrics=MetricsRegistry() if args.metrics else None,
            profiler=profiler,
        )
        # Nothing else holds the world, so this frees it — tens of
        # thousands of objects — by reference count; named, so the
        # profile attributes the teardown instead of leaving it in
        # ``probe``'s self time.
        with profiler.phase("world.free"):
            del internet
    rows = save_campaign(args.out, result)
    out.write(
        "%s from %s: %d probes, %d responses, %d interfaces; %d rows -> %s\n"
        % (
            args.prober,
            args.vantage,
            result.sent,
            len(result.records),
            len(result.interfaces),
            rows,
            args.out,
        )
    )
    wall_profile = None
    if args.profile:
        profiler.validate()
        wall_profile = profiler.to_profile_dict()
        write_chrome_trace(args.profile, profiler)
        out.write(profiler.report() + "\n")
        out.write(
            "profile: %.1f%% of %.4fs attributed; Perfetto trace -> %s\n"
            % (
                100.0 * wall_profile["coverage"],
                wall_profile["total_seconds"],
                args.profile,
            )
        )
    if args.metrics:
        manifest = build_manifest(
            result,
            seed=world_config.seed,
            metrics=result.metrics,
            world=dataclasses.asdict(world_config),
            records_file=args.out,
            wall_seconds=stopwatch.elapsed_seconds() if stopwatch else None,
            wall_profile=wall_profile,
        )
        write_manifest(args.metrics, manifest)
        out.write("manifest -> %s\n" % args.metrics)
    return 0


def cmd_stats(args: argparse.Namespace, out: TextIO) -> int:
    from ..analysis import render_table  # see cmd_analyze

    manifest = read_manifest(args.manifest)
    run = manifest.get("run", {})
    run_rows = [[key, run[key]] for key in sorted(run)]
    run_rows.append(["seed", manifest.get("seed")])
    wallclock = manifest.get("wallclock", {})
    if "seconds" in wallclock:
        run_rows.append(["wall seconds", "%.3f" % wallclock["seconds"]])
    out.write(render_table(["field", "value"], run_rows, title="run") + "\n")
    summary = manifest.get("summary", {})
    if summary:
        summary_rows = [[key, summary[key]] for key in sorted(summary)]
        out.write(render_table(["field", "value"], summary_rows, title="summary") + "\n")

    metrics = manifest.get("metrics", {})
    scalar_rows = []
    series_rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("kind")
        if kind == "counter":
            scalar_rows.append([name, entry["value"]])
        elif kind == "counter_map":
            total = sum(value for _, value in entry["values"])
            scalar_rows.append([name, "%s over %d keys" % (total, len(entry["values"]))])
        elif kind == "gauge":
            scalar_rows.append(
                [name, "last=%s min=%s max=%s" % (entry["last"], entry["min"], entry["max"])]
            )
        elif kind == "histogram":
            scalar_rows.append([name, "%s samples" % sum(entry["counts"])])
        elif kind == "series":
            total = sum(value for _, value in entry["points"])
            series_rows.append([name, len(entry["points"]), total])
    if scalar_rows:
        out.write(render_table(["metric", "value"], scalar_rows, title="metrics") + "\n")
    if series_rows:
        out.write(
            render_table(["series", "buckets", "total"], series_rows, title="series")
            + "\n"
        )

    top = args.top
    if top > 0:
        ttl_entry = metrics.get("prober.ttl_yield")
        if ttl_entry and ttl_entry.get("kind") == "counter_map":
            ranked = sorted(
                ttl_entry["values"], key=lambda item: (-item[1], item[0])
            )
            ttl_rows = [
                [str(key), value] for key, value in ranked[:top]
            ]
            out.write(
                render_table(
                    ["ttl", "responses"],
                    ttl_rows,
                    title="top %d TTL yield" % top,
                )
                + "\n"
            )
        profile = wallclock.get("profile")
        if profile:
            phases = sorted(
                profile.get("phases", []),
                key=lambda row: -row["self_seconds"],
            )
            phase_rows = [
                [
                    row["path"],
                    row["count"],
                    "%.4f" % row["self_seconds"],
                    "%.4f" % row["total_seconds"],
                ]
                for row in phases[:top]
            ]
            out.write(
                render_table(
                    ["phase", "count", "self(s)", "total(s)"],
                    phase_rows,
                    title="top %d profiler phases by self time" % top,
                )
                + "\n"
            )
    return 0


def cmd_analyze(args: argparse.Namespace, out: TextIO) -> int:
    if args.subnets and not args.world:
        out.write("--subnets needs --world for ASN attribution\n")
        return 2
    # Only this command and `stats` read repro.analysis; networkx is loaded
    # by the graph functions themselves, so only --graph pays for it.
    from ..analysis import (
        AsnResolver,
        build_traces,
        discover_by_path_div,
        format_count,
        graph_summary,
        interface_graph,
        path_length_stats,
        reach_fraction,
        render_table,
    )

    loaded = load_campaign(args.results)
    traces = build_traces(loaded.records)
    median, mean, p95 = path_length_stats(traces.values())
    rows = [
        ["responses", format_count(len(loaded.records))],
        ["unique interfaces", format_count(len(loaded.interfaces))],
        ["traces with responses", format_count(len(traces))],
        ["reach-target fraction", "%.1f%%" % (100 * reach_fraction(traces.values()))],
        ["path length median/mean/p95", "%d / %.1f / %d" % (median, mean, p95)],
    ]
    if loaded.skipped_rows:
        rows.append(["malformed rows skipped", str(loaded.skipped_rows)])
    out.write(render_table(["metric", "value"], rows, title="campaign summary") + "\n")

    if args.graph:
        graph = interface_graph(traces)
        stats = graph_summary(graph)
        out.write(
            "interface graph: %d nodes, %d edges, %d components\n"
            % (stats["nodes"], stats["edges"], stats["components"])
        )

    if args.subnets:
        built = _load_world(args.world)
        resolver = AsnResolver(built.truth.registry, built.truth.equivalent_asns)
        candidates = discover_by_path_div(traces, resolver)
        histogram = candidates.length_histogram()
        out.write(
            "subnets: %d candidates, %d IA-hack /64s\n"
            % (len(candidates.candidate_prefixes), len(candidates.ia_subnets))
        )
        for length in sorted(histogram):
            out.write("  /%d: %d\n" % (length, histogram[length]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="IPv6 topology discovery reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    world = commands.add_parser("world", help="generate a world config")
    world.add_argument("--seed", type=int, default=2018)
    world.add_argument("--edge", type=int, default=120)
    world.add_argument("--cpe", type=int, default=1500)
    world.add_argument("--out", required=True)
    world.set_defaults(handler=cmd_world)

    seeds = commands.add_parser("seeds", help="synthesize a hitlist seed source")
    seeds.add_argument("--world", required=True)
    seeds.add_argument("--source", required=True)
    seeds.add_argument("--random-count", type=int, default=10_000)
    seeds.add_argument("--sixgen-budget", type=int, default=20_000)
    seeds.add_argument("--cdn-k32", type=int, default=32)
    seeds.add_argument("--cdn-k256", type=int, default=256)
    seeds.add_argument("--out", required=True)
    seeds.set_defaults(handler=cmd_seeds)

    targets = commands.add_parser("targets", help="run the target pipeline")
    targets.add_argument("--seeds", required=True)
    targets.add_argument("--level", type=int, default=64)
    targets.add_argument(
        "--method",
        default="fixediid",
        choices=("fixediid", "lowbyte1", "random"),
    )
    targets.add_argument("--out", required=True)
    targets.set_defaults(handler=cmd_targets)

    probe = commands.add_parser("probe", help="run a probing campaign")
    probe.add_argument("--world", required=True)
    probe.add_argument("--vantage", default="US-EDU-1")
    probe.add_argument("--targets", required=True)
    probe.add_argument("--prober", default="yarrp6", choices=tuple(PROBERS))
    probe.add_argument("--pps", type=float, default=1000.0)
    probe.add_argument("--max-ttl", type=int, default=16)
    probe.add_argument("--fill", action="store_true")
    probe.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON run manifest (spec, seed, metric dump, wall time) "
        "to PATH alongside the .yrp6 output",
    )
    probe.add_argument(
        "--profile",
        metavar="PATH",
        help="profile the pipeline's wall-clock phases (world build, the "
        "campaign's layers, world teardown), write a "
        "Perfetto-loadable Chrome trace to PATH and print the phase "
        "report; reporting only — the .yrp6 bytes are unchanged",
    )
    probe.add_argument("--out", required=True)
    probe.set_defaults(handler=cmd_probe)

    stats = commands.add_parser("stats", help="summarize a run manifest")
    stats.add_argument("manifest", help="manifest JSON written by probe --metrics")
    stats.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also render the top-N TTLs by response yield and, when the "
        "manifest has a wall-clock profile, the top-N profiler phases "
        "by self time",
    )
    stats.set_defaults(handler=cmd_stats)

    analyze = commands.add_parser("analyze", help="analyze campaign output")
    analyze.add_argument("--results", required=True)
    analyze.add_argument("--world")
    analyze.add_argument("--subnets", action="store_true")
    analyze.add_argument("--graph", action="store_true")
    analyze.set_defaults(handler=cmd_analyze)
    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        # No command strands a reference cycle of its own (argparse's
        # parser is the one cycle left behind), so a collection while it
        # runs would walk its world, records and seeds and free nothing:
        # reference counts free them when the handler returns.
        with collector_paused():
            return args.handler(args, out)
    except (ValueError, OSError) as error:
        # An input the command line named cannot be used — an unreadable
        # or malformed file or manifest, an unknown vantage, a
        # configuration the prober refuses (TTL range, pps): its own
        # one-line message, like any other bad argument.
        out.write("%s\n" % error)
        return 2
    except ModuleNotFoundError as error:
        # numpy and networkx are imported by the call that computes with
        # them, so a process without one gets as far as a handler.
        if error.name not in ("numpy", "networkx"):
            raise
        out.write(
            "repro-sim: %s: needs the %r package\n" % (args.command, error.name)
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
