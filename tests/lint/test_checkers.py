"""Fixture-driven tests for each lint rule: rule ids, line numbers, and
suppression-comment behaviour."""

import os

import pytest

from repro.lint import lint_file, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(*parts):
    return os.path.join(FIXTURES, *parts)


def lines_for(violations, rule):
    return [v.line for v in violations if v.rule == rule]


class TestDET001:
    def test_all_sources_flagged_at_their_lines(self):
        violations = lint_file(fixture_path("det001_bad.py"))
        assert {v.rule for v in violations} == {"DET001"}
        assert lines_for(violations, "DET001") == [13, 17, 21, 25, 29, 33, 37, 41]

    def test_messages_name_the_source(self):
        violations = lint_file(fixture_path("det001_bad.py"))
        by_line = {v.line: v.message for v in violations}
        assert "time.time" in by_line[13]
        assert "time.time" in by_line[17]  # resolved through the import alias
        assert "datetime.datetime.now" in by_line[21]
        assert "random.randint" in by_line[25]
        assert "without a seed" in by_line[29]
        assert "os.urandom" in by_line[33]
        assert "uuid.uuid4" in by_line[37]
        assert "PYTHONHASHSEED" in by_line[41]

    def test_seeded_random_and_suppressed_line_are_clean(self):
        violations = lint_file(fixture_path("det001_bad.py"))
        # the seeded_ok/suppressed functions sit past the last violation
        assert max(v.line for v in violations) == 41

    def test_disable_comment_suppresses_only_named_rule(self):
        source = "import time\nx = time.time()  # repro-lint: disable=DET002\n"
        assert lines_for(lint_source(source), "DET001") == [2]
        source = "import time\nx = time.time()  # repro-lint: disable=DET001\n"
        assert lint_source(source) == []

    def test_disable_file_comment(self):
        source = (
            "# repro-lint: disable-file=DET001\n"
            "import time\n"
            "x = time.time()\n"
            "y = time.time()\n"
        )
        assert lint_source(source) == []

    def test_wallclock_boundary_time_reads_exempt_entropy_not(self):
        violations = lint_file(fixture_path("repro", "obs", "wallclock.py"))
        # The two time reads pass; the os.urandom on line 22 still fires.
        assert lines_for(violations, "DET001") == [22]
        assert "os.urandom" in violations[0].message

    def test_deadline_boundary_time_reads_exempt_entropy_not(self):
        """repro.prober.deadline is the supervisor's allowlisted doorway
        to host time — same shape as the wallclock boundary."""
        violations = lint_file(fixture_path("repro", "prober", "deadline.py"))
        assert lines_for(violations, "DET001") == [23]
        assert "os.urandom" in violations[0].message

    def test_instrumented_sim_code_cannot_read_wall_time(self):
        violations = lint_file(fixture_path("repro", "obs", "metrics_bad.py"))
        assert lines_for(violations, "DET001") == [18]
        assert "time.time" in violations[0].message

    def test_exemption_is_module_scoped_not_path_substring(self):
        source = "import time\nx = time.time()\n"
        assert lint_source(source, module="repro.obs.wallclock") == []
        flagged = lint_source(source, module="repro.obs.metrics")
        assert lines_for(flagged, "DET001") == [2]

    def test_real_wallclock_module_is_clean(self):
        from repro.obs import wallclock

        assert lint_file(wallclock.__file__) == []

    def test_profiler_boundary_time_reads_exempt_entropy_not(self):
        violations = lint_file(fixture_path("repro", "obs", "profiler.py"))
        # Both time reads pass; the uuid.uuid4 on line 23 still fires.
        assert lines_for(violations, "DET001") == [23]
        assert "uuid.uuid4" in violations[0].message

    def test_profiler_exemption_does_not_leak_to_other_obs_modules(self):
        source = "import time\nx = time.perf_counter()\n"
        assert lint_source(source, module="repro.obs.profiler") == []
        flagged = lint_source(source, module="repro.obs.metrics")
        assert lines_for(flagged, "DET001") == [2]

    def test_real_profiler_module_is_clean(self):
        from repro.obs import profiler

        assert lint_file(profiler.__file__) == []


class TestDET002:
    def test_fixture_lines(self):
        violations = lint_file(
            fixture_path("repro", "prober", "det002_bad.py")
        )
        assert {v.rule for v in violations} == {"DET002"}
        assert lines_for(violations, "DET002") == [16, 19, 33, 38, 44]

    def test_scoped_to_order_sensitive_packages(self):
        source = "for x in {1, 2, 3}:\n    print(x)\n"
        in_scope = lint_source(source, module="repro.prober.thing")
        out_of_scope = lint_source(source, module="repro.addrs.thing")
        assert lines_for(in_scope, "DET002") == [1]
        assert out_of_scope == []

    def test_module_path_derived_from_file_location(self):
        # The fixture under fixtures/repro/prober/ got its module scope
        # from the path, with no explicit module= hint.
        violations = lint_file(
            fixture_path("repro", "prober", "det002_bad.py")
        )
        assert violations, "path-derived module should be order-sensitive"

    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in sorted({1, 2}):\n    print(x)\n",
            "total = sum(x for x in {1, 2})\n",
            "doubled = {x * 2 for x in {1, 2}}\n",
            "n = len({1, 2})\n",
        ],
    )
    def test_order_insensitive_consumers_allowed(self, snippet):
        assert lint_source(snippet, module="repro.netsim.thing") == []

    def test_lint_ordered_annotation_suppresses(self):
        source = "for x in {1, 2}:  # lint: ordered\n    print(x)\n"
        assert lint_source(source, module="repro.analysis.thing") == []

    def test_ordered_comment_inside_string_is_not_a_suppression(self):
        source = 'note = "# lint: ordered"\nfor x in {1, 2}:\n    print(x)\n'
        violations = lint_source(source, module="repro.analysis.thing")
        assert lines_for(violations, "DET002") == [2]


class TestDET003:
    def test_fixture_lines(self):
        violations = lint_file(fixture_path("det003_bad.py"))
        assert {v.rule for v in violations} == {"DET003"}
        assert lines_for(violations, "DET003") == [15, 16, 22, 25]

    def test_field_messages_name_offending_types(self):
        violations = lint_file(fixture_path("det003_bad.py"))
        by_line = {v.line: v.message for v in violations}
        assert "CampaignSpec.internet" in by_line[15]
        assert "Internet" in by_line[15]
        assert "Callable" in by_line[16]
        assert "ShardPlan.handle" in by_line[22]  # via string forward ref
        assert "must be a @dataclass" in by_line[25]

    def test_clean_spec_not_flagged(self):
        violations = lint_file(fixture_path("det003_bad.py"))
        assert all("CleanSpec" not in v.message for v in violations)

    def test_real_campaign_spec_is_clean(self):
        from repro.prober import parallel

        assert lint_file(parallel.__file__) == []

    def test_boundary_marker_in_a_string_literal_marks_nothing(self):
        # Markers are read from comment tokens: this class line *contains*
        # the marker text, but inside a string, so it is not a boundary.
        source = (
            'class Plan: note = "# repro-lint: worker-boundary"\n'
        )
        assert lint_source(source) == []
        marked = "class Plan:  # repro-lint: worker-boundary\n    pass\n"
        assert [v.rule for v in lint_source(marked)] == ["DET003"]
        above = "# repro-lint: worker-boundary\nclass Plan:\n    pass\n"
        assert [v.rule for v in lint_source(above)] == ["DET003"]


class TestFramework:
    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n")
        assert [v.rule for v in violations] == ["E999"]

    def test_violations_sorted_by_location(self):
        violations = lint_file(fixture_path("det001_bad.py"))
        locations = [(v.path, v.line, v.column) for v in violations]
        assert locations == sorted(locations)

    def test_select_filters_rules(self):
        from repro.lint.rules import lint_file as lint

        only = lint(fixture_path("det003_bad.py"), select=["DET001"])
        assert only == []

    def test_registry_rejects_duplicates(self, monkeypatch):
        # A duplicate id in the one table raises at import.
        import importlib

        from repro.lint import rules
        from repro.lint.program import perf

        clash = perf.HotRegionRule("DET001", "clashes", frozenset(), "%s via %s")
        monkeypatch.setattr(perf, "RULES", perf.RULES + (clash,))
        try:
            with pytest.raises(ValueError, match="duplicate rule id 'DET001'"):
                importlib.reload(rules)
        finally:
            monkeypatch.undo()
            importlib.reload(rules)
