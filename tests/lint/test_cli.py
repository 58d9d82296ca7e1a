"""CLI behaviour: exit codes, output formats, and the acceptance gate
that the real source tree lints clean."""

import io
import json
import os

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
    path = os.path.join(FIXTURES, "pkt001_bad.py")
    code, output = run([path])
    assert code == 1
    assert "PKT001" in output
    # text format is path:line:col: RULE message
    assert "%s:8:1: PKT001" % path in output


def test_json_format_is_machine_readable():
    code, output = run(["--format", "json", os.path.join(FIXTURES, "det003_bad.py")])
    assert code == 1
    payload = json.loads(output)
    assert payload["count"] == len(payload["violations"]) > 0
    first = payload["violations"][0]
    assert set(first) == {"rule", "path", "line", "column", "message"}


def test_select_runs_only_named_rules():
    code, output = run(
        ["--select", "DET001", os.path.join(FIXTURES, "pkt001_bad.py")]
    )
    assert code == 0
    assert "0 violations found" in output


def test_unknown_select_is_usage_error():
    code, output = run(["--select", "NOPE42", FIXTURES])
    assert code == 2
    assert "NOPE42" in output


def test_no_paths_is_usage_error():
    code, _ = run([])
    assert code == 2


def test_list_checkers_names_every_rule():
    code, output = run(["--list-checkers"])
    assert code == 0
    for rule in ("DET001", "DET002", "DET003", "PKT001"):
        assert rule in output


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
    for target, golden in (
        ("tests/lint/fixtures", "expected_fixtures.json"),
        # MUT101 only fires with its fixture program linted alone.
        ("tests/lint/fixtures/program/mut101", "expected_mut101.json"),
    ):
        code, output = run(["--format", "json", target])
        assert code == 1
        with open(os.path.join(HERE, golden)) as handle:
            assert output == handle.read(), golden


def test_each_file_is_read_parsed_tokenized_and_indexed_once(tmp_path, monkeypatch):
    import ast
    import tokenize

    from repro.lint import index

    tree = tmp_path / "repro" / "prober"
    tree.mkdir(parents=True)
    sources = {
        "a.py": "import time\n\n\ndef f():  # repro-lint: program-root\n    return time.time()\n",
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
    assert code == 1 and "DET101" in output and "LNT001" in output
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


# -- --changed: git-diff-scoped file sets -----------------------------------


def _init_repo(tmp_path):
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", "-c", "user.email=lint@test", "-c", "user.name=lint"]
            + list(argv),
            cwd=str(tmp_path),
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    return git


def test_changed_limits_the_run_to_dirty_files(tmp_path, monkeypatch):
    git = _init_repo(tmp_path)
    clean = tmp_path / "clean.py"
    clean.write_text("import time\n\n\ndef committed():\n    return time.time()\n")
    touched = tmp_path / "touched.py"
    touched.write_text("def fine():\n    return 1\n")
    git("add", "clean.py", "touched.py")
    git("commit", "-q", "-m", "seed")
    # clean.py has a violation but is committed untouched; touched.py is
    # modified and fresh.py is untracked — only those two are linted.
    touched.write_text(
        "import time\n\n\ndef dirty():\n    return time.time()\n"
    )
    (tmp_path / "fresh.py").write_text("import random\nrandom.random()\n")
    monkeypatch.chdir(tmp_path)
    code, output = run(["--changed", str(tmp_path)])
    assert code == 1, output
    assert "touched.py" in output
    assert "fresh.py" in output
    assert "clean.py" not in output
    # Without --changed the committed violation is back in scope.
    code, output = run([str(tmp_path)])
    assert "clean.py" in output


def test_changed_falls_back_to_full_run_outside_a_repo(tmp_path, monkeypatch, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\n\ndef dirty():\n    return time.time()\n"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-gitdir"))
    code, output = run(["--changed", str(tmp_path)])
    assert code == 1, output
    assert "mod.py" in output
    assert "linting the full file set" in capsys.readouterr().err
