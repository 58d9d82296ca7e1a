"""The ten-pair verdict (``benchmarks.pairs``) on canned runs.

The verdict is a pure function of two lists of readings; the numbers
here are shaped like ledger runs (``probes_per_s`` around 35 k, ``wall_s``
around 0.11 s) so each rule of choosing-metrics §8 is hit once.
"""

import os

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


def _tree(root, name, harness="x = 1\n"):
    ledger = root / name / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (root / name / "BENCHMARK.json").write_text("{}")
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


def test_report_rows_runs_and_failures():
    metrics = [{"name": "probes_per_s", "better": "higher", "bound": 0.25}]

    def runs(values, failed):
        return [
            {"failed": failed, "attempted": 7, "metrics": {"probes_per_s": {"value": value}}}
            for value in values
        ]

    text = report(
        "yarrp6-walk",
        metrics,
        {"parent": runs(PARENT, 0), "change": runs([v * 1.3 for v in PARENT], 1)},
    )
    assert (
        "| `yarrp6-walk` | `probes_per_s` | 34671 (33003–37370) | 45072 (42904–48580) "
        "| 1.300 | 10 / 10 | claimed |"
    ) in text
    assert "yarrp6-walk probes_per_s parent 35308 33092" in text
    assert text.endswith("operations failed: parent 0 / 70, change 10 / 70")
