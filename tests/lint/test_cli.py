"""CLI behaviour: exit codes, output formats, and the acceptance gate
that the real source tree lints clean."""

import io
import json
import os

import pytest

from repro.lint.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero():
    code, output = run([os.path.join(SRC, "repro")])
    assert code == 0, output
    assert "0 violations found" in output


def test_violations_exit_one_with_locations():
    path = os.path.join(FIXTURES, "det001_bad.py")
    code, output = run([path])
    assert code == 1
    assert "DET001" in output
    # text format is path:line:col: RULE message
    assert "%s:13:12: DET001" % path in output


def test_json_format_is_machine_readable():
    code, output = run(["--format", "json", os.path.join(FIXTURES, "det003_bad.py")])
    assert code == 1
    payload = json.loads(output)
    assert payload["count"] == len(payload["violations"]) > 0
    first = payload["violations"][0]
    assert set(first) == {"rule", "path", "line", "column", "message"}


def test_select_runs_only_named_rules():
    code, output = run(
        ["--select", "DET003", os.path.join(FIXTURES, "det001_bad.py")]
    )
    assert code == 0
    assert "0 violations found" in output


def test_unknown_select_is_usage_error():
    code, output = run(["--select", "NOPE42", FIXTURES])
    assert code == 2
    assert "NOPE42" in output


@pytest.mark.parametrize("retired", ["PKT001", "OBS101"])
def test_retired_rule_id_is_an_unknown_rule_id(retired):
    code, output = run(["--select", retired, FIXTURES])
    assert code == 2
    assert output == "unknown rule id(s): %s (try --list-checkers)\n" % retired


@pytest.mark.parametrize(
    "argv", [["--cache", "facts.json"], ["--changed"], ["--no-program"]]
)
def test_retired_option_is_a_usage_error(argv, capsys):
    # There is one way to run: every file under the paths, every selected
    # row.  The options that made a second way are plain argparse errors.
    with pytest.raises(SystemExit) as exit_info:
        run(argv + [FIXTURES])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: %s" % argv[0] in capsys.readouterr().err


def test_no_paths_is_usage_error():
    code, _ = run([])
    assert code == 2


def test_list_checkers_names_every_rule():
    code, output = run(["--list-checkers"])
    assert code == 0
    assert [line.split()[0] for line in output.splitlines()] == [
        "DET001", "DET002", "DET003", "LNT001",
        "PERF101", "PERF102", "PERF103",
    ]


def test_missing_path_is_io_error():
    code, output = run([os.path.join(FIXTURES, "does_not_exist.py")])
    assert code == 2
    assert "error" in output


def test_golden_output_for_the_fixture_trees(monkeypatch):
    # The whole `--format json` document over the fixtures, byte for byte:
    # a refactor's "same rule ids, lines, columns and messages" is a diff
    # of one file.  Regenerate (from the repo root) only when a rule's
    # behaviour is meant to change:
    #   python -m repro.lint.cli --format json tests/lint/fixtures \
    #       > tests/lint/expected_fixtures.json
    monkeypatch.chdir(os.path.join(HERE, "..", ".."))
    code, output = run(["--format", "json", "tests/lint/fixtures"])
    assert code == 1
    with open(os.path.join(HERE, "expected_fixtures.json")) as handle:
        assert output == handle.read()


def test_each_file_is_read_parsed_tokenized_and_indexed_once(tmp_path, monkeypatch):
    import ast
    import tokenize

    from repro.lint import index

    tree = tmp_path / "repro" / "prober"
    tree.mkdir(parents=True)
    sources = {
        "a.py": "def f(items):  # repro-lint: hot-loop\n    return [item for item in items]\n",
        "b.py": "from .a import f\n\n\ndef g(items):\n    return [f() for _ in set(items)]\n",
        "c.py": "X = 1  # repro-lint: disable=DET001\n",
    }
    for name, text in sources.items():
        (tree / name).write_text(text)
    counts = {"parse": [], "tokenize": 0, "origins": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            if name == "parse":
                counts["parse"].append(args[0])
            else:
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ast, "parse", counting("parse", ast.parse))
    monkeypatch.setattr(
        tokenize, "generate_tokens", counting("tokenize", tokenize.generate_tokens)
    )
    monkeypatch.setattr(
        index, "_import_origins", counting("origins", index._import_origins)
    )
    # Every rule selected, whole-program pass included.
    code, output = run([str(tmp_path)])
    assert code == 1 and "PERF101" in output and "LNT001" in output
    assert sorted(counts["parse"]) == sorted(sources.values())
    assert counts["tokenize"] == len(sources)
    assert counts["origins"] == len(sources)


def test_undecodable_file_is_one_e999_and_the_rest_is_still_linted(tmp_path):
    from repro.lint.rules import lint_file, lint_program_paths

    latin = tmp_path / "latin.py"
    latin.write_bytes(b'x = "caf\xe9"\n')
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    code, output = run([str(tmp_path)])
    assert code == 1, output
    assert "%s:1:1: E999 not valid UTF-8" % latin in output
    assert "%s:5:12: DET001" % dirty in output
    assert output.count("E999") == 1
    assert [(v.rule, v.line, v.column) for v in lint_file(str(latin))] == [
        ("E999", 1, 1)
    ]
    violations, program = lint_program_paths([str(tmp_path)])
    assert [(v.rule, v.path) for v in violations] == [("E999", str(latin))]
    assert program.facts[str(latin)].parse_error


def test_exclude_skips_prefixed_paths():
    # Linting the fixture tree trips by design; excluding it yields a
    # clean run over the same argument.
    code, output = run([FIXTURES])
    assert code == 1
    code, output = run(["--exclude", FIXTURES, FIXTURES])
    assert code == 0
    assert "0 violations found" in output


def test_exclude_normalizes_dot_and_trailing_slash():
    from repro.lint.cli import excluded

    assert excluded("tests/lint/fixtures/x.py", ["./tests/lint/fixtures/"])
    assert excluded("tests/lint/fixtures", ["tests/lint/fixtures"])
    # A prefix match is per path segment, not per character.
    assert not excluded("tests/lint/fixtures_extra/x.py", ["tests/lint/fixtures"])
