"""SARIF 2.1.0 output: schema shape, rule metadata, and determinism."""

import io
import json
import os

from repro.lint.cli import main
from repro.lint.sarif import SARIF_VERSION, TOOL_NAME

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")


def run_sarif(paths):
    out = io.StringIO()
    code = main(["--format", "sarif"] + paths, out=out)
    return code, out.getvalue()


def test_sarif_document_shape():
    code, output = run_sarif([os.path.join(FIXTURES, "det001_bad.py")])
    assert code == 1
    doc = json.loads(output)
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == TOOL_NAME


def test_sarif_driver_lists_every_rule():
    _, output = run_sarif([os.path.join(FIXTURES, "det001_bad.py")])
    driver = json.loads(output)["runs"][0]["tool"]["driver"]
    ids = [rule["id"] for rule in driver["rules"]]
    assert ids == sorted(ids)
    assert ids == ["DET001", "DET002", "DET003", "LNT001"]


def test_sarif_rules_carry_description_and_help_uri():
    from repro.lint.sarif import TOOL_URI

    _, output = run_sarif([os.path.join(FIXTURES, "det001_bad.py")])
    rules = json.loads(output)["runs"][0]["tool"]["driver"]["rules"]
    for rule in rules:
        assert rule["shortDescription"]["text"]
        assert rule["helpUri"] == "%s#%s" % (TOOL_URI, rule["id"].lower())


def test_sarif_result_links_rule_and_location():
    _, output = run_sarif([os.path.join(FIXTURES, "det001_bad.py")])
    run = json.loads(output)["runs"][0]
    result = run["results"][0]
    assert result["ruleId"] == "DET001"
    assert result["level"] == "error"
    rules = run["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "DET001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("det001_bad.py")
    assert "\\" not in location["artifactLocation"]["uri"]
    assert location["region"]["startLine"] == 13
    assert location["region"]["startColumn"] == 12


def test_sarif_clean_input_has_empty_results(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def double(x):\n    return 2 * x\n")
    code, output = run_sarif([str(clean)])
    doc = json.loads(output)
    assert code == 0
    assert doc["runs"][0]["results"] == []


def test_sarif_output_is_byte_identical_across_runs():
    first = run_sarif([os.path.join(FIXTURES, "det003_bad.py")])
    second = run_sarif([os.path.join(FIXTURES, "det003_bad.py")])
    assert first == second


def test_sarif_over_the_live_tree_parses(monkeypatch):
    """``repro-lint --format sarif src/`` from the repository root, as a
    code-scanning upload would run it: a SARIF log that parses, names
    every rule and, on the clean tree, holds no result."""
    monkeypatch.chdir(os.path.normpath(os.path.join(HERE, "..", "..")))
    code, output = run_sarif(["src/"])
    assert code == 0, output
    doc = json.loads(output)
    assert doc["version"] == SARIF_VERSION
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == TOOL_NAME
    assert len(run["tool"]["driver"]["rules"]) == 4
    assert run["results"] == []


def test_sarif_artifact_uri_is_a_forward_slash_relative_path():
    from repro.lint.core import Violation
    from repro.lint.sarif import sarif_document

    paths = ["./src/a.py", "././src/b.py", "src\\win\\c.py", "/abs/d.py"]
    doc = sarif_document([Violation("DET001", path, 1, 1, "m") for path in paths], {})
    uris = [
        result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for result in doc["runs"][0]["results"]
    ]
    assert uris == ["src/a.py", "src/b.py", "src/win/c.py", "/abs/d.py"]
