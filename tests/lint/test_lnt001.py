"""LNT001 — unused/unknown suppression detection."""

import os

from repro.lint.rules import lint_file, lint_source

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")


def test_lnt001_fixture_findings():
    violations = lint_file(os.path.join(FIXTURES, "lnt001_bad.py"))
    assert [(v.rule, v.line) for v in violations] == [
        ("LNT001", 11),
        ("LNT001", 15),
        ("LNT001", 18),
        ("LNT001", 19),
    ]
    by_line = {v.line: v.message for v in violations}
    assert "found nothing to suppress" in by_line[11]
    assert "unknown rule" in by_line[15]
    assert "DET999" in by_line[15]
    # PKT001 is a retired id: a suppression still naming it is found like
    # any other unknown one, not ignored.
    assert "disable-file=PKT001" in by_line[18]
    assert "unknown rule" in by_line[18]
    # So is one naming a retired hot-path (PERF) rule.
    assert "unknown rule" in by_line[19]


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
    assert [(v.rule, v.line) for v in violations] == [
        ("LNT001", 15),
        ("LNT001", 18),
        ("LNT001", 19),
    ]


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


def findings(source, module="repro.prober.thing", select=None):
    return [
        (v.rule, v.line, v.message)
        for v in lint_source(source, module=module, select=select)
    ]


def test_lnt001_flags_unused_disable_all():
    # disable=all silences every rule but LNT001, so an 'all' that
    # suppressed nothing is reported on its own line.
    [(rule, line, message)] = findings("x = 1  # repro-lint: disable=all\n")
    assert (rule, line) == ("LNT001", 1)
    assert "'disable=all': no rule fired here" in message


def test_lnt001_flags_unused_disable_file_all():
    [(rule, line, message)] = findings("x = 1\n# repro-lint: disable-file=all\n")
    assert (rule, line) == ("LNT001", 2)
    assert "'disable-file=all': no rule fired here" in message


def test_lnt001_used_disable_all_is_quiet():
    source = "import time\nx = time.time()  # repro-lint: disable=all\n"
    assert findings(source) == []
    source = "# repro-lint: disable-file=all\nimport time\nx = time.time()\n"
    assert findings(source) == []


def test_lnt001_judges_disable_all_only_when_another_rule_ran():
    assert findings("x = 1  # repro-lint: disable=all\n", select=["LNT001"]) == []


def test_lnt001_is_silenced_only_by_naming_it():
    assert findings("x = 1  # repro-lint: disable=DET001,LNT001\n") == []
    # 'all' does not cover LNT001: both unused tokens are reported.
    found = findings("x = 1  # repro-lint: disable=DET001,all\n")
    assert [(rule, line) for rule, line, _ in found] == [("LNT001", 1)] * 2
    assert sorted(message.split("'")[1] for _, _, message in found) == [
        "disable=DET001",
        "disable=all",
    ]


def test_lnt001_flags_unused_disable_file():
    [(rule, line, message)] = findings("# repro-lint: disable-file=DET001\nx = 1\n")
    assert (rule, line) == ("LNT001", 1)
    assert "unused suppression 'disable-file=DET001'" in message


def test_lnt001_leaves_suppressions_of_out_of_scope_rules_alone():
    # DET002 judges only order-sensitive packages: outside them its
    # suppression could not be judged, inside them it is unused.
    source = "x = [1]  # repro-lint: disable=DET002\n"
    assert findings(source, module="repro.addrs.thing") == []
    [(rule, line, message)] = findings(source, module="repro.prober.thing")
    assert (rule, line) == ("LNT001", 1)
    assert "disable=DET002" in message
