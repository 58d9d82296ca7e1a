"""Fixture self-tests for the whole-program rules (DET101/RNG101 and
the PERF101-103 hot-path rules) and the program-root / hot-loop marker
comments."""

import importlib
import io
import os

from repro.lint import rules as rules_mod
from repro.lint.program import graph, perf
from repro.lint.rules import (
    PROGRAM_RULES,
    analyze,
    lint_program_paths,
    load_sources,
)

HERE = os.path.dirname(__file__)
PROGRAM_FIXTURES = os.path.join(HERE, "fixtures", "program")


def run_fixture(name, select):
    base = os.path.join(PROGRAM_FIXTURES, name)
    violations, program = lint_program_paths([base], select=select)
    return violations, program


def located(violations):
    return sorted((os.path.basename(v.path), v.line) for v in violations)


# -- DET101: transitive impurity ------------------------------------------


def test_det101_flags_every_function_on_the_impure_chain():
    violations, _ = run_fixture("det101", select=["DET101"])
    assert all(v.rule == "DET101" for v in violations)
    assert located(violations) == [
        ("campaign.py", 8),
        ("campaign.py", 10),
        ("engine.py", 7),
        ("engine.py", 11),
        ("engine.py", 22),
    ]


def test_det101_message_shows_the_full_call_chain():
    violations, _ = run_fixture("det101", select=["DET101"])
    by_line = {(os.path.basename(v.path), v.line): v.message for v in violations}
    assert "engine.jitter_us -> time.time" in by_line[("engine.py", 7)]
    assert (
        "engine.helper -> engine.jitter_us -> time.time"
        in by_line[("engine.py", 11)]
    )
    assert (
        "engine.Engine.run -> engine.helper -> engine.jitter_us -> time.time"
        in by_line[("engine.py", 22)]
    )
    # Cross-module chain through a nested callback.
    assert (
        "campaign.run_campaign.tick -> engine.helper -> engine.jitter_us"
        in by_line[("campaign.py", 8)]
    )
    assert (
        "campaign.run_campaign -> campaign.run_campaign.tick"
        in by_line[("campaign.py", 10)]
    )


def test_det101_names_the_program_root():
    violations, _ = run_fixture("det101", select=["DET101"])
    roots = {v.message.split("program root '")[1].split("'")[0] for v in violations}
    assert "engine.Engine.run" in roots
    assert "campaign.run_campaign" in roots


def test_det101_suppressed_source_does_not_seed_impurity():
    violations, _ = run_fixture("det101", select=["DET101"])
    # stamped() calls time.time_ns() under a DET001 disable; that source
    # must not leak into any chain, and Engine.run's finding must come
    # only from the helper() path.
    assert not any("time.time_ns" in v.message for v in violations)


def test_det101_unreachable_impurity_is_not_flagged():
    violations, _ = run_fixture("det101", select=["DET101"])
    assert not any("offline_report" in v.message for v in violations)
    assert not any(v.line == 27 for v in violations)


# -- RNG101: seed provenance ----------------------------------------------


def test_rng101_flags_entropy_and_opaque_only():
    violations, _ = run_fixture("rng101", select=["RNG101"])
    assert all(v.rule == "RNG101" for v in violations)
    assert located(violations) == [
        ("rng.py", 19),
        ("rng.py", 23),
    ]


def test_rng101_entropy_seed_message():
    violations, _ = run_fixture("rng101", select=["RNG101"])
    entropy = [v for v in violations if v.line == 19][0]
    assert "os.urandom" in entropy.message


def test_rng101_traces_opaque_value_to_the_call_site():
    violations, _ = run_fixture("rng101", select=["RNG101"])
    opaque = [v for v in violations if v.line == 23][0]
    assert "parameter 'count'" in opaque.message
    assert "rng.py:32" in opaque.message
    assert "compute()" in opaque.message


def test_rng101_seed_mixed_derivation_is_clean():
    violations, _ = run_fixture("rng101", select=["RNG101"])
    # good() (line 10) and seed_mixed() (line 15) are sanctioned: the
    # seed parameter is mixed arithmetically with constants / opaque ints.
    assert not any(v.line in (10, 15) for v in violations)


# -- PERF101: per-iteration allocation in hot regions -----------------------


def test_perf101_flags_allocation_sites_at_exact_lines():
    violations, _ = run_fixture("perf101", select=["PERF101"])
    assert all(v.rule == "PERF101" for v in violations)
    assert located(violations) == [
        ("hot.py", 14),  # comprehension in the hot root's body
        ("hot.py", 17),  # dict literal inside the loop
        ("hot.py", 25),  # Scratch(...) construction in the callee's loop
        ("hot.py", 26),  # struct.pack in the callee's loop
    ]


def test_perf101_messages_carry_witness_chains():
    violations, _ = run_fixture("perf101", select=["PERF101"])
    by_line = {v.line: v.message for v in violations}
    # Root-body sites chain trivially to the root itself.
    assert "rooted at 'hot.craft_block'" in by_line[14]
    assert "via hot.craft_block " in by_line[14]
    # Callee sites show the interprocedural chain from the hot root.
    assert "via hot.craft_block -> hot.encode" in by_line[25]
    assert "a new Scratch object" in by_line[25]
    assert "struct.pack" in by_line[26]


def test_perf101_cold_twin_and_empty_displays_are_silent():
    violations, _ = run_fixture("perf101", select=["PERF101"])
    # cold_block (lines 37-43) repeats the same patterns unreachably;
    # `out = []` accumulator inits and the raise path stay silent too.
    assert not any(v.line >= 33 for v in violations)


# -- PERF102: superlinear accumulation in hot regions -----------------------


def test_perf102_flags_quadratic_patterns_at_exact_lines():
    violations, _ = run_fixture("perf102", select=["PERF102"])
    assert all(v.rule == "PERF102" for v in violations)
    assert located(violations) == [
        ("accumulate.py", 16),  # log += str concatenation
        ("accumulate.py", 17),  # membership test against a list
        ("accumulate.py", 19),  # recent.insert(0, ...)
        ("accumulate.py", 20),  # sorted() inside the loop
    ]


def test_perf102_messages_name_the_accumulators():
    violations, _ = run_fixture("perf102", select=["PERF102"])
    by_line = {v.line: v.message for v in violations}
    assert "'log' grows by str += concatenation" in by_line[16]
    assert "membership test against list 'seen'" in by_line[17]
    assert "'recent.insert(0, ...)'" in by_line[19]
    assert "full re-sort per iteration" in by_line[20]
    assert all("via accumulate.drain" in v.message for v in violations)


def test_perf102_straight_line_helper_and_cold_twin_are_silent():
    violations, _ = run_fixture("perf102", select=["PERF102"])
    # push()'s += is straight-line in a non-root function; cold_drain
    # repeats the loop patterns unreachably.
    assert not any(v.line >= 25 for v in violations)


# -- PERF103: numpy <-> Python scalar churn in hot regions ------------------


def test_perf103_flags_churn_sites_at_exact_lines():
    violations, _ = run_fixture("perf103", select=["PERF103"])
    assert all(v.rule == "PERF103" for v in violations)
    assert located(violations) == [
        ("vectors.py", 17),  # values[index] by loop variable
        ("vectors.py", 18),  # for value in values
        ("vectors.py", 21),  # np.append in the while loop
        ("vectors.py", 30),  # squeezed[index] in the reachable callee
        ("vectors.py", 31),  # .item() in the reachable callee
    ]


def test_perf103_messages_carry_witness_chains():
    violations, _ = run_fixture("perf103", select=["PERF103"])
    by_line = {v.line: v.message for v in violations}
    assert "element-wise indexing of array 'values'" in by_line[17]
    assert "Python-level loop over array 'values'" in by_line[18]
    assert "'np.append' copies the whole array" in by_line[21]
    assert "via vectors.fold -> vectors.collapse" in by_line[30]
    assert "'.item()' unboxing one numpy scalar" in by_line[31]


def test_perf103_constant_indexing_and_cold_twin_are_silent():
    violations, _ = run_fixture("perf103", select=["PERF103"])
    # squeezed[0] (line 26) is a one-off read, not per-element churn;
    # cold_fold (lines 39+) repeats the loop patterns unreachably.
    assert not any(v.line in (26,) or v.line >= 35 for v in violations)


def test_hot_loop_comment_marks_custom_roots(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "custom.py").write_text(
        "def spin(items):  # repro-lint: hot-loop\n"
        "    return churn(items)\n"
        "\n"
        "\n"
        "def churn(items):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append({'item': item})\n"
        "    return out\n"
        "\n"
        "\n"
        "def unmarked(items):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append({'item': item})\n"
        "    return out\n"
    )
    violations, _ = lint_program_paths([str(tmp_path)], select=["PERF101"])
    # Only the churn() reached from the marked root fires; the identical
    # unmarked() function is outside every hot region.
    assert located(violations) == [("custom.py", 8)]
    assert "via custom.spin -> custom.churn" in violations[0].message


# -- program mechanics ------------------------------------------------------


def test_everything_about_a_rule_follows_from_its_registry_row(
    tmp_path, monkeypatch
):
    from repro.lint import cli

    assert rules_mod.DESCRIPTIONS == {
        rule.RULE: rule.DESCRIPTION for rule in rules_mod.RULES
    }
    assert rules_mod.RULES[-1].RULE == "LNT001"  # judges what the others consumed
    # One more row in the rule table, and nothing else edited: re-importing
    # the table is what a source edit amounts to.
    row = perf.HotRegionRule(
        "PERF199", "whole-program: test row", frozenset({"display"}), "%s via %s"
    )
    monkeypatch.setattr(perf, "RULES", perf.RULES + (row,))
    try:
        importlib.reload(rules_mod)
        assert rules_mod.PROGRAM_RULES[-1] is row
        assert rules_mod.DESCRIPTIONS["PERF199"] == row.DESCRIPTION
        listing = io.StringIO()
        assert cli.main(["--list-checkers"], out=listing) == 0
        assert "PERF199  whole-program: test row" in listing.getvalue()
        target = tmp_path / "mod.py"
        target.write_text("def f():\n    return 1\n")
        assert cli.main(["--select", "PERF199", str(target)], out=io.StringIO()) == 0
        program = rules_mod.analyze(rules_mod.load_sources([str(target)]))
        rules_mod.run_rules(program)
        # ran everywhere, except a rule with in_scope() outside its scope
        # (DET002 judges netsim/prober/analysis modules only)
        assert program.files[0].ran_rules == set(rules_mod.DESCRIPTIONS) - {"DET002"}
    finally:
        monkeypatch.undo()
        importlib.reload(rules_mod)
    assert "PERF199" not in rules_mod.DESCRIPTIONS


def test_program_rules_registry_is_complete():
    assert {rule.RULE for rule in PROGRAM_RULES} == {
        "DET101",
        "RNG101",
        "PERF101",
        "PERF102",
        "PERF103",
    }


def test_program_output_is_deterministic_across_runs():
    first, _ = run_fixture("det101", select=None)
    second, _ = run_fixture("det101", select=None)
    assert [v.format() for v in first] == [v.format() for v in second]


def test_program_root_comment_marks_custom_roots(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "custom.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def my_loop():  # repro-lint: program-root\n"
        "    return dirty()\n"
        "\n"
        "\n"
        "def dirty():\n"
        "    return time.time()\n"
    )
    violations, _ = lint_program_paths([str(tmp_path)], select=["DET101"])
    assert located(violations) == [("custom.py", 5), ("custom.py", 9)]
    assert any("my_loop" in v.message for v in violations)


def test_program_root_marker_in_a_string_literal_marks_nothing(tmp_path):
    # `# repro-lint: program-root` is a directive only as a comment token:
    # a default-argument string spelling it on the def line roots nothing.
    pkg = tmp_path / "repro"
    pkg.mkdir()
    source = (
        "import time\n"
        "\n"
        "\n"
        'def entry(note="# repro-lint: program-root"):\n'
        "    return helper()\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return time.time()\n"
    )
    (pkg / "marker.py").write_text(source)
    violations, _ = lint_program_paths([str(tmp_path)], select=["DET101"])
    assert violations == []
    (pkg / "marker.py").write_text(source.replace("):\n", "):  # repro-lint: program-root\n", 1))
    violations, _ = lint_program_paths([str(tmp_path)], select=["DET101"])
    assert located(violations) == [("marker.py", 5), ("marker.py", 9)]


def test_hot_loop_marker_in_a_string_literal_marks_nothing(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    source = (
        'def spin(items, note="# repro-lint: hot-loop"):\n'
        "    return [{'item': item} for item in items]\n"
    )
    (pkg / "marker.py").write_text(source)
    violations, _ = lint_program_paths([str(tmp_path)], select=["PERF101"])
    assert violations == []
    (pkg / "marker.py").write_text(source.replace("):\n", "):  # repro-lint: hot-loop\n", 1))
    violations, _ = lint_program_paths([str(tmp_path)], select=["PERF101"])
    assert {v.line for v in violations} == {2}


def test_live_tree_has_no_program_violations():
    src = os.path.normpath(os.path.join(HERE, "..", "..", "src", "repro"))
    violations, program = lint_program_paths([src])
    assert violations == []
    # The graph must actually cover the tree: every default root resolved.
    assert program.graph.edge_count > 500


def test_every_root_list_names_a_live_function():
    """A root that no longer resolves is silently skipped by every rule
    that walks from it; a rename must fail here instead."""
    src = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
    nodes = analyze(load_sources([src])).graph.nodes
    for roots in (
        graph.DEFAULT_ROOTS,
        graph.WORKER_ROOTS,
        perf.DEFAULT_HOT_ROOTS,
    ):
        assert sorted(set(roots) - set(nodes)) == []
    # One spelling of the worker roots: DET101's defaults contain it.
    assert "repro.prober.supervise._attempt_process" in graph.WORKER_ROOTS
    assert set(graph.WORKER_ROOTS) < graph.DEFAULT_ROOTS
