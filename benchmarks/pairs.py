"""The ten-pair protocol as one command (choosing-metrics §8).

``python -m benchmarks.pairs PARENT_TREE CHANGE_TREE --workload W
[--pairs 10] [--seed 2018]`` runs ``BENCHMARK.json``'s command for ``W``
in each checkout, alternating which side goes first, and prints per
end-to-end metric the docs/performance.md row, every run and a verdict.
``--workload all`` does that for each workload ``BENCHMARK.json`` lists,
in turn, into one table and one every-run listing — the rows a perf
change's acceptance needs.
With ``--trace N`` it runs the traced per-layer suite instead, ``N``
alternating times a side, and prints one row per ``per_layer`` name:
median, min–max, ratio — where a saving sits, so no verdict.
``--json PATH`` also writes what it prints to PATH, as data: every row
(with its verdict), every run, the failed operations and each tree's id
(:func:`tree_id`); ``benchmarks/history/PR_NN.json`` are such files.
``python -m benchmarks.pairs --history [DIR]`` runs nothing: it prints
one row per metric of each ``PR_*.json`` in DIR (default
``benchmarks/history``), in PR order — the trajectory.
Exit 2, before anything is run: the trees would not be measured by the
same benchmark, ``BENCHMARK.json`` does not list ``W``, ``--pairs`` is
below the two runs a side that quartiles need, or ``--trace`` (one suite,
whatever the workload) is asked of ``all``; exit 1: an operation failed
anywhere.  It imports nothing of either tree.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")
HEADER = """| workload | metric | parent median (quartiles) | change median (quartiles) \
| change / parent | pairs the change reads better | verdict |
|---|---|---|---|---|---|---|"""
LAYER_HEADER = """| layer | parent median (min–max) | change median (min–max) \
| change / parent |
|---|---|---|---|"""
HISTORY_HEADER = """| file | workload | metric | parent median | change median | change / parent \
| pairs the change reads better | verdict |
|---|---|---|---|---|---|---|---|"""
#: Where perf changes commit their ``--json`` records.
HISTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "history")


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int]:
    """``(verdict, pairs the change won)`` for one metric's paired runs.

    ``claimed``: the change reads better in at least nine tenths of the
    pairs (ties for neither) and the medians are further apart than the
    parent's own quartiles.  Otherwise ``worse`` when its median is past
    ``bound`` (a share of the parent's median) the wrong way,
    ``unresolved`` when either side's quartiles are further apart than
    the bound, and ``within bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    spreads = [q3 - q1 for q1, _, q3 in (statistics.quantiles(v, n=4) for v in (parent, change))]
    if 10 * won >= 9 * len(parent) and gain > spreads[0]:
        return "claimed", won
    if -gain > bound * abs(base):
        return "worse", won
    return ("unresolved" if max(spreads) > bound * abs(base) else "within bound"), won


def differing_files(parent: str, change: str) -> List[str]:
    """The files the benchmark is made of that the two trees do not share."""
    names = {"BENCHMARK.json", os.path.join("benchmarks", "ledger", "expected.json")}
    for tree in (parent, change):
        sources = glob.glob(os.path.join(tree, "benchmarks", "ledger", "*.py"))
        names.update(os.path.relpath(path, tree) for path in sources)
    _, mismatched, unreadable = filecmp.cmpfiles(parent, change, sorted(names), shallow=False)
    return sorted(mismatched + unreadable)


def tree_id(tree: str) -> str:
    """The sha256 of a checkout's ``src/**/*.py`` — each file's path
    relative to the tree, a NUL, its bytes, a NUL, in sorted path order:
    what a side measured, whether or not the tree is a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(tree, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, tree).encode() + b"\0")
        with open(path, "rb") as source:
            digest.update(source.read() + b"\0")
    return digest.hexdigest()


def _text(value: float) -> str:
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


def failed_operations(runs: Dict[str, List[Any]]) -> Dict[str, Dict[str, int]]:
    """side -> failed and attempted operations of its finished runs."""
    return {
        side: {
            "failed": sum(run["failed"] for run in runs[side]),
            "attempted": sum(run["attempted"] for run in runs[side]),
        }
        for side in SIDES
    }


def failures(runs: Dict[str, List[Any]]) -> str:
    """The failed-operation count of finished runs, a side at a time."""
    counts = failed_operations(runs)
    return "operations failed: " + ", ".join(
        "%s %d / %d" % (side, counts[side]["failed"], counts[side]["attempted"]) for side in SIDES
    )


def _values(runs: Dict[str, List[Any]], name: str) -> Dict[str, List[float]]:
    return {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}


def layer_rows(names: Sequence[str], runs: Dict[str, List[Any]]) -> List[Dict[str, Any]]:
    """One row per per-layer metric of the traced runs: each side's runs,
    median, min and max, and the ratio of medians (None for a zero parent)."""
    rows = []
    for name in names:
        row: Dict[str, Any] = {"layer": name}
        for side, values in _values(runs, name).items():
            row[side] = {
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "runs": values,
            }
        parent, change = row["parent"]["median"], row["change"]["median"]
        row["ratio"] = change / parent if parent else None
        rows.append(row)
    return rows


def layer_report(names: Sequence[str], runs: Dict[str, List[Any]]) -> str:
    """One row per per-layer metric of the traced runs: no verdict."""
    rows = [LAYER_HEADER]
    for row in layer_rows(names, runs):
        cells = [
            "%s (%s–%s)" % tuple(_text(row[side][key]) for key in ("median", "min", "max"))
            for side in SIDES
        ]
        ratio = "–" if row["ratio"] is None else "%.3f" % row["ratio"]
        rows.append("| `%s` | %s | %s | %s |" % (row["layer"], cells[0], cells[1], ratio))
    return "\n".join(rows + [failures(runs)])


def _every_run(measured: Dict[str, Dict[str, List[Any]]]) -> Dict[str, List[Any]]:
    """side -> the runs of every workload measured."""
    return {side: [run for runs in measured.values() for run in runs[side]] for side in SIDES}


def table(
    metrics: List[Dict[str, Any]], measured: Dict[str, Dict[str, List[Any]]]
) -> List[Dict[str, Any]]:
    """One row per workload in ``measured`` (workload -> side -> runs) and
    end-to-end metric: each side's runs and quartiles, the ratio of
    medians, the pairs the change read better and the verdict."""
    rows = []
    for workload, runs in measured.items():
        for metric in metrics:
            row: Dict[str, Any] = {"workload": workload, "metric": metric["name"]}
            sides = _values(runs, metric["name"])
            for side, values in sides.items():
                q1, median, q3 = statistics.quantiles(values, n=4)
                row[side] = {"median": median, "q1": q1, "q3": q3, "runs": values}
            label, won = verdict(*sides.values(), metric["better"], metric["bound"])
            row["ratio"] = statistics.median(sides["change"]) / statistics.median(sides["parent"])
            row.update(won=won, pairs=len(sides["parent"]), verdict=label)
            rows.append(row)
    return rows


def report(metrics: List[Dict[str, Any]], measured: Dict[str, Dict[str, List[Any]]]) -> str:
    """The table, every run and the failed-operation count of the finished
    pairs of each workload in ``measured`` (workload -> side -> runs)."""
    rows, every_run = [HEADER], ["", "```"]
    for row in table(metrics, measured):
        cells = [
            "%s (%s–%s)" % tuple(_text(row[side][key]) for key in ("median", "q1", "q3"))
            for side in SIDES
        ]
        rows.append(
            "| `%s` | `%s` | %s | %s | %.3f | %d / %d | %s |"
            % (row["workload"], row["metric"], *cells, row["ratio"], row["won"], row["pairs"],
               row["verdict"])
        )
        listed = [" ".join(map(_text, row[side]["runs"])) for side in SIDES]
        every_run.append("%s %s parent %s | change %s" % (row["workload"], row["metric"], *listed))
    return "\n".join(rows + every_run + ["```", failures(_every_run(measured))])


def record(
    spec: Dict[str, Any],
    measured: Dict[str, Dict[str, List[Any]]],
    trees: Dict[str, str],
    seed: int,
    commands: Dict[str, List[str]],
    trace: bool,
) -> Dict[str, Any]:
    """What a run prints, as data: the command and seed each workload ran
    with, each side's tree id, the table's rows (the per-layer rows with
    ``trace``) with every run, and the failed operations."""
    if trace:
        (runs,) = measured.values()
        rows = {"layers": layer_rows([layer["name"] for layer in spec["per_layer"]], runs)}
    else:
        rows = {"rows": table(spec["end_to_end"], measured)}
    return {
        "seed": seed,
        "commands": commands,
        "trees": {side: tree_id(tree) for side, tree in trees.items()},
        **rows,
        "operations": failed_operations(_every_run(measured)),
    }


def _pr_number(path: str) -> Tuple[int, str]:
    name = os.path.basename(path)
    digits = name[len("PR_") : -len(".json")]
    return (int(digits) if digits.isdigit() else -1, name)


def history(directory: str) -> str:
    """One row per metric (per layer, for a traced record) of each
    ``PR_*.json`` record in ``directory``, in PR order."""
    rows = [HISTORY_HEADER]
    for path in sorted(glob.glob(os.path.join(directory, "PR_*.json")), key=_pr_number):
        with open(path, encoding="utf-8") as source:
            document = json.load(source)
        name = os.path.basename(path)
        for row in document.get("rows", []):
            rows.append(
                "| %s | `%s` | `%s` | %s | %s | %.3f | %d / %d | %s |"
                % (name, row["workload"], row["metric"], _text(row["parent"]["median"]),
                   _text(row["change"]["median"]), row["ratio"], row["won"], row["pairs"],
                   row["verdict"])
            )
        for row in document.get("layers", []):
            ratio = "–" if row["ratio"] is None else "%.3f" % row["ratio"]
            rows.append(
                "| %s | (per layer) | `%s` | %s | %s | %s | – | – |"
                % (name, row["layer"], _text(row["parent"]["median"]),
                   _text(row["change"]["median"]), ratio)
            )
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pairs", description=__doc__)
    parser.add_argument("parent_tree", nargs="?")
    parser.add_argument("change_tree", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--trace", type=int, default=0, metavar="N")
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--history", nargs="?", const=HISTORY, metavar="DIR")
    args = parser.parse_args(argv)
    if args.history is not None:
        print(history(args.history))
        return 0
    if args.change_tree is None or args.workload is None:
        parser.error("PARENT_TREE, CHANGE_TREE and --workload are required without --history")
    trees = dict(zip(SIDES, (args.parent_tree, args.change_tree)))
    differing = differing_files(args.parent_tree, args.change_tree)
    if differing:
        print("pairs: the trees' benchmarks differ: %s" % ", ".join(differing), file=sys.stderr)
        return 2
    with open(os.path.join(args.parent_tree, "BENCHMARK.json"), encoding="utf-8") as source:
        spec = json.load(source)
    listed = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in listed + ["all"]:
        print(
            "pairs: BENCHMARK.json lists no workload %r (it lists: %s)"
            % (args.workload, ", ".join(listed)),
            file=sys.stderr,
        )
        return 2
    if args.pairs < 2 or args.trace < 0:
        print(
            "pairs: need --pairs >= 2 (quartiles want two runs a side) and --trace >= 0",
            file=sys.stderr,
        )
        return 2
    if args.trace and args.workload == "all":
        print("pairs: --trace runs one suite whatever the workload: name one", file=sys.stderr)
        return 2
    count = args.trace or args.pairs
    measured: Dict[str, Dict[str, List[Any]]] = {}
    commands: Dict[str, List[str]] = {}
    for workload in listed if args.workload == "all" else [args.workload]:
        command = spec["command"] + ["--workload", workload, "--seed", str(args.seed)]
        command += ["--seconds", str(spec["run_seconds"]), "--trace", str(int(args.trace > 0))]
        commands[workload] = command
        runs = measured[workload] = {side: [] for side in SIDES}
        for pair in range(count):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                stdout = subprocess.check_output(command, cwd=trees[side], text=True)
                runs[side].append(json.loads(stdout.strip().splitlines()[-1]))
            print("pairs: %s %d of %d done" % (workload, pair + 1, count), file=sys.stderr)
        print("seed %d: %s" % (args.seed, " ".join(command)))
    if args.trace:
        print(layer_report([layer["name"] for layer in spec["per_layer"]], measured[args.workload]))
    else:
        print(report(spec["end_to_end"], measured))
    if args.json:
        document = record(spec, measured, trees, args.seed, commands, args.trace > 0)
        with open(args.json, "w", encoding="utf-8") as sink:
            json.dump(document, sink, indent=1)
            sink.write("\n")
    return int(any(run["failed"] for runs in _every_run(measured).values() for run in runs))


if __name__ == "__main__":
    sys.exit(main())
