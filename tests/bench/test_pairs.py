"""The ten-pair verdict (``benchmarks.pairs``) on canned runs.

The verdict is a pure function of two lists of readings; the numbers
here are shaped like ledger runs (``probes_per_s`` around 35 k, ``wall_s``
around 0.11 s) so each rule of choosing-metrics §8 is hit once.
"""

import glob
import json
import os

import pytest

from benchmarks import pairs
from benchmarks.pairs import differing_files, main, report, verdict

PARENT = [35308, 33092, 38079, 36582, 33599, 32737, 38774, 32471, 37133, 34034]


class TestVerdict:
    def test_clean_win_is_claimed(self):
        change = [value * 1.3 for value in PARENT]
        assert verdict(PARENT, change, "higher", 0.25) == ("claimed", 10)

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [value * 1.3 for value in PARENT]
        change[0] = PARENT[0] - 1
        assert verdict(PARENT, change, "higher", 0.25) == ("claimed", 9)
        change[1] = PARENT[1] - 1
        assert verdict(PARENT, change, "higher", 0.25) == ("within bound", 8)

    def test_ties_count_for_neither(self):
        """Six ties, four wins: 4 of 10, however far the medians sit."""
        parent = [89.4] * 10
        change = [89.4] * 6 + [85.0] * 4
        assert verdict(parent, change, "lower", 0.1) == ("within bound", 4)
        assert verdict(parent, parent, "lower", 0.1) == ("within bound", 0)

    def test_median_inside_the_parents_quartiles_is_not_claimed(self):
        """Ten of ten pairs, each by a hair: the medians are closer than
        the parent's own interquartile distance."""
        change = [value + 50 for value in PARENT]
        assert verdict(PARENT, change, "higher", 0.25) == ("within bound", 10)

    def test_lower_is_better(self):
        parent = [0.1134, 0.1051, 0.1209, 0.1093, 0.1191, 0.1222, 0.1032, 0.1232, 0.1077, 0.1042]
        faster = [value * 0.77 for value in parent]
        assert verdict(parent, faster, "lower", 0.25) == ("claimed", 10)
        assert verdict(parent, faster, "higher", 0.25)[1] == 0
        slower = [value * 1.3 for value in parent]
        assert verdict(parent, slower, "lower", 0.25) == ("worse", 0)
        assert verdict(parent, [value * 1.2 for value in parent], "lower", 0.25) == (
            "within bound",
            0,
        )

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [0.62, 0.68, 0.76, 0.80, 0.66, 0.77, 0.67, 0.66, 0.82, 0.79]
        change = [0.67, 0.66, 0.72, 0.58, 0.72, 0.76, 0.65, 0.62, 0.73, 0.79]
        assert verdict(parent, change, "lower", 0.25)[0] == "within bound"
        assert verdict(parent, change, "lower", 0.05)[0] == "unresolved"


#: As much of ``BENCHMARK.json`` as ``main`` reads.
SPEC = {
    "command": ["python3", "benchmarks/ledger/run.py"],
    "run_seconds": 6,
    "workloads": [{"name": "yarrp6-walk"}, {"name": "yarrp6-fill"}],
    "end_to_end": [{"name": "probes_per_s", "better": "higher", "bound": 0.25}],
    "per_layer": [{"name": "prober.encoding.scalar_ns"}, {"name": "netsim.engine.events"}],
}


def _tree(root, name, harness="x = 1\n"):
    ledger = root / name / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (root / name / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (ledger / "harness.py").write_text(harness)
    (ledger / "expected.json").write_text("{}")
    return str(root / name)


class TestSameBenchmark:
    def test_equal_trees(self, tmp_path):
        assert differing_files(_tree(tmp_path, "a"), _tree(tmp_path, "b")) == []

    def test_differing_trees_exit_2_before_running_anything(self, tmp_path, capsys):
        parent = _tree(tmp_path, "a")
        change = _tree(tmp_path, "b", harness="x = 2\n")
        os.remove(os.path.join(change, "benchmarks", "ledger", "expected.json"))
        (tmp_path / "b" / "benchmarks" / "ledger" / "extra.py").write_text("")
        ledger = os.path.join("benchmarks", "ledger")
        assert differing_files(parent, change) == [
            os.path.join(ledger, "expected.json"),
            os.path.join(ledger, "extra.py"),
            os.path.join(ledger, "harness.py"),
        ]
        assert main([parent, change, "--workload", "yarrp6-walk"]) == 2
        assert "harness.py" in capsys.readouterr().err


class TestRefusedBeforeAnythingRuns:
    @pytest.mark.parametrize(
        "flags, reason",
        [
            # Both trees ran, then statistics.quantiles raised.
            (["--workload", "yarrp6-fill", "--pairs", "1"], "--pairs >= 2"),
            # The child's argparse refused it, as a CalledProcessError traceback.
            (["--workload", "yarrp6-refill"], "lists no workload 'yarrp6-refill'"),
            # The traced suite is one suite: five copies of it are not five rows.
            (["--workload", "all", "--trace", "3"], "--trace runs one suite"),
        ],
    )
    def test_exit_2_and_nothing_spawned(self, tmp_path, capsys, monkeypatch, flags, reason):
        def spawned(*args, **kwargs):
            raise AssertionError("a benchmark ran before the arguments were checked")

        monkeypatch.setattr(pairs.subprocess, "check_output", spawned)
        assert main([_tree(tmp_path, "a"), _tree(tmp_path, "b")] + flags) == 2
        assert reason in capsys.readouterr().err


def test_trace_runs_n_alternating_traced_pairs_and_prints_a_row_per_layer(
    tmp_path, capsys, monkeypatch
):
    trees = {"parent": _tree(tmp_path, "a"), "change": _tree(tmp_path, "b")}
    readings = {"parent": iter([3100.0, 3300.0, 3200.0]), "change": iter([3150.0, 3250.0, 3350.0])}
    order = []

    def spawned(command, cwd, text):
        side = [name for name, tree in trees.items() if tree == cwd][0]
        order.append((side, command[-2:]))
        layers = {
            "prober.encoding.scalar_ns": {"value": next(readings[side])},
            "netsim.engine.events": {"value": 0},
        }
        return "noise\n" + json.dumps({"attempted": 22, "failed": 0, "metrics": layers})

    monkeypatch.setattr(pairs.subprocess, "check_output", spawned)
    flags = ["--workload", "yarrp6-fill", "--trace", "3"]
    assert main([trees["parent"], trees["change"]] + flags) == 0
    assert order == [
        (side, ["--trace", "1"])
        for side in ("parent", "change", "change", "parent", "parent", "change")
    ]
    text = capsys.readouterr().out
    assert "| `prober.encoding.scalar_ns` | 3200 (3100–3300) | 3250 (3150–3350) | 1.016 |" in text
    # A layer that reads zero has no ratio; no row carries a verdict.
    assert "| `netsim.engine.events` | 0 (0–0) | 0 (0–0) | – |" in text
    assert "verdict" not in text
    assert text.endswith("operations failed: parent 0 / 66, change 0 / 66\n")


class TestEveryWorkload:
    """``--workload all``: each listed workload in turn, one table."""

    def _main(self, tmp_path, monkeypatch, failing=None):
        trees = {"parent": _tree(tmp_path, "a"), "change": _tree(tmp_path, "b")}
        order = []

        def spawned(command, cwd, text):
            side = [name for name, tree in trees.items() if tree == cwd][0]
            workload = command[command.index("--workload") + 1]
            order.append((workload, side))
            rate = {"parent": 30000.0, "change": 40000.0}[side] + len(order)
            failed = int((workload, side) == failing)
            metrics = {"probes_per_s": {"value": rate}}
            return json.dumps({"attempted": 5, "failed": failed, "metrics": metrics})

        monkeypatch.setattr(pairs.subprocess, "check_output", spawned)
        flags = ["--workload", "all", "--pairs", "2"]
        return main([trees["parent"], trees["change"]] + flags), order

    def test_each_listed_workload_in_turn_into_one_table(self, tmp_path, capsys, monkeypatch):
        code, order = self._main(tmp_path, monkeypatch)
        assert code == 0
        # The same alternation, started afresh for each workload.
        assert order == [
            (workload, side)
            for workload in ("yarrp6-walk", "yarrp6-fill")
            for side in ("parent", "change", "change", "parent")
        ]
        text = capsys.readouterr().out
        assert text.count(pairs.HEADER) == 1 and text.count("```") == 2
        rows = [line for line in text.splitlines() if line.startswith("| `yarrp6-")]
        assert [row.split("`")[1] for row in rows] == ["yarrp6-walk", "yarrp6-fill"]
        assert all(row.endswith("| 2 / 2 | claimed |") for row in rows)
        assert "yarrp6-walk probes_per_s parent 30001 30004 | change 40002 40003" in text
        assert "yarrp6-fill probes_per_s parent 30005 30008 | change 40006 40007" in text
        assert text.endswith("operations failed: parent 0 / 20, change 0 / 20\n")

    def test_an_operation_failed_anywhere_is_exit_1(self, tmp_path, capsys, monkeypatch):
        code, _ = self._main(tmp_path, monkeypatch, failing=("yarrp6-fill", "change"))
        assert code == 1
        assert capsys.readouterr().out.endswith(
            "operations failed: parent 0 / 20, change 2 / 20\n"
        )


def test_report_rows_runs_and_failures():
    metrics = [{"name": "probes_per_s", "better": "higher", "bound": 0.25}]

    def runs(values, failed):
        return [
            {"failed": failed, "attempted": 7, "metrics": {"probes_per_s": {"value": value}}}
            for value in values
        ]

    text = report(
        metrics,
        {"yarrp6-walk": {"parent": runs(PARENT, 0), "change": runs([v * 1.3 for v in PARENT], 1)}},
    )
    assert (
        "| `yarrp6-walk` | `probes_per_s` | 34671 (33003–37370) | 45072 (42904–48580) "
        "| 1.300 | 10 / 10 | claimed |"
    ) in text
    assert "yarrp6-walk probes_per_s parent 35308 33092" in text
    assert text.endswith("operations failed: parent 0 / 70, change 10 / 70")


class TestJson:
    """``--json PATH``: what the run prints, as data, built here from
    canned runs (``check_output`` is replaced; nothing is spawned)."""

    def _spawned(self, trees, monkeypatch):
        def spawned(command, cwd, text):
            side = [name for name, tree in trees.items() if tree == cwd][0]
            factor = 1.3 if side == "change" else 1.0
            value = PARENT[len(calls) // 2 % len(PARENT)] * factor
            calls.append(side)
            metrics = {
                name: {"value": value}
                for name in ("probes_per_s", "prober.encoding.scalar_ns", "netsim.engine.events")
            }
            return json.dumps({"attempted": 7, "failed": int(side == "change"), "metrics": metrics})

        calls = []
        monkeypatch.setattr(pairs.subprocess, "check_output", spawned)

    @pytest.mark.parametrize(
        "flags", [["--workload", "all"], ["--workload", "yarrp6-fill", "--trace", "3"]]
    )
    def test_the_file_holds_what_is_printed_and_the_print_is_unchanged(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        trees = {"parent": _tree(tmp_path, "a"), "change": _tree(tmp_path, "b")}
        self._spawned(trees, monkeypatch)
        argv = [trees["parent"], trees["change"], "--pairs", "4", "--seed", "7"] + flags
        assert main(argv) == 1
        printed = capsys.readouterr().out
        self._spawned(trees, monkeypatch)
        path = tmp_path / "PR.json"
        assert main(argv + ["--json", str(path)]) == 1
        assert capsys.readouterr().out == printed
        document = json.loads(path.read_text())
        assert document["seed"] == 7
        runs_a_side = len(document["commands"]) * (3 if "--trace" in flags else 4)
        assert document["operations"] == {
            "parent": {"failed": 0, "attempted": 7 * runs_a_side},
            "change": {"failed": runs_a_side, "attempted": 7 * runs_a_side},
        }
        assert document["trees"]["parent"] == document["trees"]["change"]
        for workload, command in document["commands"].items():
            assert "seed 7: %s" % " ".join(command) in printed
        if "--trace" in flags:
            assert [row["layer"] for row in document["layers"]] == [
                layer["name"] for layer in SPEC["per_layer"]
            ]
            for row in document["layers"]:
                cells = [
                    "%s (%s–%s)" % tuple(pairs._text(side[key]) for key in ("median", "min", "max"))
                    for side in (row["parent"], row["change"])
                ]
                assert "| `%s` | %s | %s | %.3f |" % (row["layer"], *cells, row["ratio"]) in printed
        else:
            assert [row["workload"] for row in document["rows"]] == ["yarrp6-walk", "yarrp6-fill"]
            for row in document["rows"]:
                assert row["verdict"] == "claimed" and (row["won"], row["pairs"]) == (4, 4)
                assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == 4
                assert "| %.3f | 4 / 4 | claimed |" % row["ratio"] in printed
                listed = [" ".join(map(pairs._text, row[side]["runs"])) for side in pairs.SIDES]
                every_run = "%s probes_per_s parent %s | change %s" % (row["workload"], *listed)
                assert every_run in printed


def test_a_tree_id_is_its_python_sources(tmp_path):
    trees = [_tree(tmp_path, name) for name in ("a", "b", "c")]
    for tree, body in zip(trees, ("x = 1\n", "x = 1\n", "x = 2\n")):
        os.makedirs(os.path.join(tree, "src", "repro"))
        with open(os.path.join(tree, "src", "repro", "m.py"), "w") as source:
            source.write(body)
    # Not sources: byte code, and the harness outside src/.
    with open(os.path.join(trees[1], "src", "repro", "m.pyc"), "w") as junk:
        junk.write("junk")
    with open(os.path.join(trees[1], "benchmarks", "ledger", "harness.py"), "w") as harness:
        harness.write("x = 3\n")
    ids = [pairs.tree_id(tree) for tree in trees]
    assert ids[0] == ids[1] != ids[2]
    assert len(ids[0]) == 64


class TestHistory:
    """``--history``: the committed records as one trajectory, read from
    disk; nothing is spawned."""

    @staticmethod
    def _side(median):
        return {"median": median, "q1": median, "q3": median, "min": median, "max": median,
                "runs": [median, median]}

    def _write(self, directory, name, **rows):
        document = {"seed": 2018, "commands": {}, "trees": {}, "operations": {}, **rows}
        (directory / name).write_text(json.dumps(document))

    def test_one_row_per_metric_of_each_file_in_pr_order(self, tmp_path, capsys, monkeypatch):
        def spawned(*args, **kwargs):
            raise AssertionError("--history ran a benchmark")

        monkeypatch.setattr(pairs.subprocess, "check_output", spawned)
        rows = [
            {"workload": "yarrp6-fill", "metric": metric, "parent": self._side(parent),
             "change": self._side(change), "ratio": change / parent, "won": 10, "pairs": 10,
             "verdict": "claimed"}
            for metric, parent, change in (("wall_s", 0.1, 0.08), ("probes_per_s", 41146, 51260))
        ]
        layers = [{"layer": "netsim.engine.events", "parent": self._side(3398),
                   "change": self._side(3398), "ratio": 1.0}]
        self._write(tmp_path, "PR_10.json", rows=rows)
        self._write(tmp_path, "PR_9.json", layers=layers)
        (tmp_path / "notes.json").write_text("not a record")
        assert main(["--history", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == pairs.HISTORY_HEADER.splitlines()[0]
        assert printed[2:] == [
            "| PR_9.json | (per layer) | `netsim.engine.events` | 3398 | 3398 | 1.000 | – | – |",
            "| PR_10.json | `yarrp6-fill` | `wall_s` | 0.1 | 0.08 | 0.800 | 10 / 10 | claimed |",
            "| PR_10.json | `yarrp6-fill` | `probes_per_s` | 41146 | 51260 | 1.246 | 10 / 10 "
            "| claimed |",
        ]

    def test_the_committed_records_read(self):
        lines = pairs.history(pairs.HISTORY).splitlines()
        paths = glob.glob(os.path.join(pairs.HISTORY, "PR_*.json"))
        assert paths
        expected = 0
        for path in paths:
            with open(path, encoding="utf-8") as source:
                document = json.load(source)
            expected += len(document.get("rows", [])) + len(document.get("layers", []))
        assert len(lines) == 2 + expected

    def test_trees_and_workload_are_required_without_it(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "yarrp6-walk"])
        assert "required without --history" in capsys.readouterr().err
