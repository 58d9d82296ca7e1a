"""SARIF 2.1.0 rendering for ``repro-lint --format sarif``.

Static Analysis Results Interchange Format, the schema GitHub code
scanning ingests.  One run, one driver (``repro-lint``), one rule entry
per row of the rule table, one result per violation.  Output is
deterministic: results arrive already sorted by (path, line, rule-id,
column), rules are listed in sorted id order, and the JSON is dumped
with sorted keys.

Paths are emitted as given on the command line, normalized to forward
slashes — relative invocations (``repro-lint src/``) therefore produce
repo-relative artifact URIs, which is what the upload action expects.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, TextIO

from .core import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"
TOOL_URI = "https://example.invalid/repro-lint"  # no public homepage; stable placeholder


def _artifact_uri(path: str) -> str:
    uri = path.replace("\\", "/")
    while uri.startswith("./"):
        uri = uri[2:]
    return uri


def sarif_document(
    violations: Sequence[Violation], rules: Dict[str, str]
) -> Dict[str, object]:
    """Build the SARIF log object (pure data; see :func:`render_sarif`).

    ``rules`` maps every rule id the run *could* have produced to its
    one-line description, so code-scanning UIs can show rule help even
    for rules with zero findings.
    """
    rule_entries = [
        {
            "id": rule,
            "name": rule,
            "shortDescription": {"text": rules[rule]},
            "helpUri": "%s#%s" % (TOOL_URI, rule.lower()),
            "defaultConfiguration": {"level": "error"},
        }
        for rule in sorted(rules)
    ]
    rule_index = {rule: index for index, rule in enumerate(sorted(rules))}
    results: List[Dict[str, object]] = []
    for violation in violations:
        result: Dict[str, object] = {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _artifact_uri(violation.path),
                        },
                        "region": {
                            "startLine": violation.line,
                            "startColumn": violation.column,
                        },
                    }
                }
            ],
        }
        if violation.rule in rule_index:
            result["ruleIndex"] = rule_index[violation.rule]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rule_entries,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def render_sarif(
    violations: Sequence[Violation], rules: Dict[str, str], out: TextIO
) -> None:
    out.write(
        json.dumps(sarif_document(violations, rules), indent=2, sort_keys=True)
        + "\n"
    )
