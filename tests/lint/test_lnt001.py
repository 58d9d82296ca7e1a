"""LNT001 — unused/unknown suppression detection, including program-rule
suppressions whose usage is recorded by the whole-program pass."""

import io
import os

from repro.lint.cli import main
from repro.lint.rules import lint_file, lint_source

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_lnt001_fixture_findings():
    violations = lint_file(os.path.join(FIXTURES, "lnt001_bad.py"))
    assert [(v.rule, v.line) for v in violations] == [
        ("LNT001", 11),
        ("LNT001", 15),
        ("LNT001", 18),
    ]
    by_line = {v.line: v.message for v in violations}
    assert "found nothing to suppress" in by_line[11]
    assert "unknown rule" in by_line[15]
    assert "DET999" in by_line[15]
    # PKT001 is a retired id: a suppression still naming it is found like
    # any other unknown one, not ignored.
    assert "disable-file=PKT001" in by_line[18]
    assert "unknown rule" in by_line[18]


def test_lnt001_used_suppression_is_quiet():
    # stamp()'s disable=DET001 suppresses a real violation on line 7:
    # neither DET001 nor LNT001 may fire there.
    violations = lint_file(os.path.join(FIXTURES, "lnt001_bad.py"))
    assert not any(v.line == 7 for v in violations)


def test_lnt001_skips_rules_that_did_not_run():
    # With DET001 deselected we cannot know whether its suppressions are
    # earned, so only the unknown-rule findings survive.
    violations = lint_file(
        os.path.join(FIXTURES, "lnt001_bad.py"), select=["DET002", "LNT001"]
    )
    assert [(v.rule, v.line) for v in violations] == [("LNT001", 15), ("LNT001", 18)]


def test_lnt001_stale_ordered_annotation():
    violations = lint_file(
        os.path.join(FIXTURES, "repro", "prober", "lnt001_ordered.py")
    )
    assert [(v.rule, v.line) for v in violations] == [("LNT001", 5)]
    assert "ordered" in violations[0].message
    assert "DET002" in violations[0].message


def test_lnt001_silent_on_unparseable_files():
    violations = lint_source("def broken(:\n", path="broken.py")
    assert not any(v.rule == "LNT001" for v in violations)


def test_lnt001_counts_program_rule_suppression_as_used(tmp_path):
    # The finding lands in a module the hot root only reaches through the
    # call graph: its suppression is consumed there, by the program rule.
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "loop.py").write_text(
        "from .cell import fill\n"
        "\n"
        "\n"
        "def spin(items):  # repro-lint: hot-loop\n"
        "    return fill(items)\n"
    )
    (tree / "cell.py").write_text(
        "def fill(items):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append([item])  # repro-lint: disable=PERF101\n"
        "    return out\n"
    )
    code, output = run_cli(["--select", "PERF101,LNT001", str(tmp_path)])
    assert code == 0, output
    assert "LNT001" not in output


def test_lnt001_flags_unused_program_rule_suppression(tmp_path):
    # The same loop outside every hot region: PERF101 never judges it, so
    # the suppression is unused.
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "cell.py").write_text(
        "def fill(items):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append([item])  # repro-lint: disable=PERF101\n"
        "    return out\n"
    )
    code, output = run_cli(["--select", "PERF101,LNT001", str(tmp_path)])
    assert code == 1, output
    assert "LNT001" in output
    assert "disable=PERF101" in output


PERF_HOT_SOURCE = (
    "def spin(items):  # repro-lint: hot-loop\n"
    "    out = []\n"
    "    for item in items:\n"
    "        out.append({'item': item})"
)


def test_lnt001_counts_perf_suppression_as_used(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "hot.py").write_text(
        PERF_HOT_SOURCE + "  # repro-lint: disable=PERF101\n    return out\n"
    )
    code, output = run_cli(["--select", "PERF101,LNT001", str(tmp_path)])
    assert code == 0, output
    assert "LNT001" not in output
    assert "PERF101" not in output


def test_lnt001_flags_unused_perf_suppression(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "cold.py").write_text(
        "def harmless():\n"
        "    return 1  # repro-lint: disable=PERF102\n"
    )
    code, output = run_cli(["--select", "PERF102,LNT001", str(tmp_path)])
    assert code == 1, output
    assert "LNT001" in output
    assert "disable=PERF102" in output


def test_multi_rule_disable_line_suppresses_both_perf_rules(tmp_path):
    # One comment carrying two PERF rules: the dict allocation (PERF101)
    # and the list membership test (PERF102) on the same line are both
    # suppressed, and LNT001 counts the shared comment as used.
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "hot.py").write_text(
        "def spin(items):  # repro-lint: hot-loop\n"
        "    out = []\n"
        "    seen = list((0,))\n"
        "    for item in items:\n"
        "        out.append({'ok': item in seen})"
        "  # repro-lint: disable=PERF101,PERF102\n"
        "    return out\n"
    )
    code, output = run_cli(
        ["--select", "PERF101,PERF102,LNT001", str(tmp_path)]
    )
    assert code == 0, output
    assert output.strip().endswith("0 violations found")


def test_multi_rule_disable_line_only_covers_named_perf_rules(tmp_path):
    # disable=PERF102,PERF103 does NOT cover the PERF101 allocation on
    # the same line — and the PERF103 half is unused, so LNT001 fires.
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "hot.py").write_text(
        "def spin(items):  # repro-lint: hot-loop\n"
        "    out = []\n"
        "    seen = list((0,))\n"
        "    for item in items:\n"
        "        out.append({'ok': item in seen})"
        "  # repro-lint: disable=PERF102,PERF103\n"
        "    return out\n"
    )
    code, output = run_cli(
        ["--select", "PERF101,PERF102,PERF103,LNT001", str(tmp_path)]
    )
    assert code == 1, output
    assert "PERF101" in output
    assert "LNT001" in output and "PERF103" in output
