"""Suppression comment edge cases: multi-rule disables and comments
inside multi-line statements."""

from repro.lint.rules import lint_source

MODULE = "repro.prober.fixture"  # in scope for DET001 and DET002


def rules_at(violations):
    return sorted((v.rule, v.line) for v in violations)


def test_multi_rule_disable_on_one_line():
    source = (
        "import time\n"
        "\n"
        "\n"
        "def f(items):\n"
        "    for x in {1, 2}: time.time()  # repro-lint: disable=DET001,DET002\n"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    assert violations == []


def test_multi_rule_disable_counterpart_without_comment():
    source = (
        "import time\n"
        "\n"
        "\n"
        "def f(items):\n"
        "    for x in {1, 2}: time.time()\n"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    assert {v.rule for v in violations} == {"DET001", "DET002"}
    assert all(v.line == 5 for v in violations)


def test_multi_rule_disable_partially_used_suppresses_only_named_rules():
    # Only DET002 fires here; DET001's half of the comment is unearned.
    source = (
        "def f(items):\n"
        "    for x in {1, 2}:\n"
        "        pass  # fine\n"
        "    return [y for y in {3, 4}]  # repro-lint: disable=DET001,DET002\n"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    assert rules_at(violations) == [("DET002", 2), ("LNT001", 4)]
    assert "disable=DET001" in violations[-1].message


def test_suppression_inside_multiline_statement_anchors_to_violation_line():
    # The banned call sits on line 3 of a multi-line call; the comment
    # must live on that physical line to suppress it.
    source = (
        "import time\n"
        "\n"
        "value = max(\n"
        "    time.time(),  # repro-lint: disable=DET001\n"
        "    0.0,\n"
        ")\n"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    assert violations == []


def test_suppression_on_opening_line_of_multiline_statement_misses():
    source = (
        "import time\n"
        "\n"
        "value = max(  # repro-lint: disable=DET001\n"
        "    time.time(),\n"
        "    0.0,\n"
        ")\n"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    # The violation anchors at the call's own line (4), so the comment on
    # line 3 both fails to suppress it AND is itself flagged as unused.
    assert rules_at(violations) == [("DET001", 4), ("LNT001", 3)]


DECORATED = (
    "import time\n"
    "\n"
    "\n"
    "def sched(when):\n"
    "    def wrap(fn):\n"
    "        return fn\n"
    "    return wrap\n"
    "\n"
    "\n"
    "@sched(time.time()){deco_comment}\n"
    "def job():{def_comment}\n"
    "    pass\n"
)


def test_suppression_on_decorator_line_of_decorated_function():
    # A banned call inside a decorator anchors at the decorator's own
    # line; the comment there suppresses it.
    source = DECORATED.format(
        deco_comment="  # repro-lint: disable=DET001", def_comment=""
    )
    assert lint_source(source, path="x.py", module=MODULE) == []


def test_suppression_on_def_line_misses_decorator_violation():
    # The def line is NOT the decorator line: the comment fails to
    # suppress the decorator's violation and is flagged unused itself.
    source = DECORATED.format(
        deco_comment="", def_comment="  # repro-lint: disable=DET001"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    assert rules_at(violations) == [("DET001", 10), ("LNT001", 11)]


def test_suppression_on_first_line_of_multiline_with():
    # A violation anchored on the opening line of a multi-line ``with``
    # is suppressed by a comment on that same physical line, even though
    # the statement spans several more.
    source = (
        "import time\n"
        "\n"
        "\n"
        "def f(ctx):\n"
        "    with ctx.start(time.time()), (  # repro-lint: disable=DET001\n"
        "        ctx.stop()\n"
        "    ):\n"
        "        pass\n"
    )
    assert lint_source(source, path="x.py", module=MODULE) == []


def test_multiline_with_violation_on_later_line_not_covered_by_first():
    source = (
        "import time\n"
        "\n"
        "\n"
        "def f(ctx):\n"
        "    with ctx.start(), (  # repro-lint: disable=DET001\n"
        "        ctx.stop(time.time())\n"
        "    ):\n"
        "        pass\n"
    )
    violations = lint_source(source, path="x.py", module=MODULE)
    assert rules_at(violations) == [("DET001", 6), ("LNT001", 5)]
