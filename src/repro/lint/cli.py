"""``repro-lint`` — run the determinism & protocol-invariant checkers.

Usage::

    repro-lint src/                      # file rules + whole-program pass
    repro-lint --format json src/ > v.json
    repro-lint --format sarif src/ > lint.sarif
    repro-lint --select PERF101,PERF102,PERF103 src/repro
    repro-lint --exclude tests/lint/fixtures tests/ benchmarks/
    repro-lint --list-checkers

Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

Pipeline (:mod:`repro.lint.rules`): every file under the given paths is
read, parsed, tokenized and indexed once; the selected rows of the one
rule table run in table order — the per-file rows, then the
whole-program rows over the facts and call graph, then LNT001, which
judges the suppressions the earlier rows consumed — and the findings are
sorted by (path, line, rule-id): identical order in text, JSON and SARIF
output.  There is no subset mode and nothing is written to disk: what
the whole-program rows judge is always the whole of what was named.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from . import rules as rules_mod
from .core import SourceFile, Violation, iter_python_files, load_source
from .sarif import render_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & protocol-invariant static analysis "
        "for the repro codebase",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="PREFIX",
        help="skip files whose path starts with PREFIX (repeatable) — "
        "e.g. --exclude tests/lint/fixtures when linting the test tree, "
        "whose fixtures are deliberate violations",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analysis statistics (files, graph size) to stderr",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _normalize(path: str) -> str:
    path = path.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    return path.rstrip("/")


def excluded(path: str, prefixes: Sequence[str]) -> bool:
    """True when ``path`` sits under any of the ``--exclude`` prefixes."""
    norm = _normalize(path)
    for prefix in prefixes:
        cut = _normalize(prefix)
        if norm == cut or norm.startswith(cut + "/"):
            return True
    return False


def render_text(violations: Sequence[Violation], out: TextIO) -> None:
    for violation in violations:
        out.write(violation.format() + "\n")
    out.write(
        "%d violation%s found\n"
        % (len(violations), "" if len(violations) == 1 else "s")
    )


def render_json(violations: Sequence[Violation], out: TextIO) -> None:
    out.write(
        json.dumps(
            {
                "violations": [violation.to_json() for violation in violations],
                "count": len(violations),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    known = rules_mod.DESCRIPTIONS
    if args.list_checkers:
        for rule in sorted(known):
            out.write("%s  %s\n" % (rule, known[rule]))
        return 0
    if not args.paths:
        parser.print_usage(out)
        return 2

    select: Optional[List[str]] = None
    if args.select is not None:
        select = [piece.strip() for piece in args.select.split(",") if piece.strip()]
        unknown = [rule for rule in select if rule not in known]
        if unknown:
            out.write(
                "unknown rule id(s): %s (try --list-checkers)\n"
                % ", ".join(sorted(unknown))
            )
            return 2

    files: List[SourceFile] = []
    try:
        for file_path in iter_python_files(args.paths):
            if not excluded(file_path, args.exclude):
                files.append(load_source(file_path))
    except OSError as error:
        out.write("error: %s\n" % error)
        return 2

    violations, program = rules_mod.lint(files, rules_mod.select_rules(select))

    if args.stats:
        if program.graph is not None:
            sys.stderr.write(
                "repro-lint: %d files, %d functions, %d call edges\n"
                % (len(files), len(program.graph.nodes), program.graph.edge_count)
            )
        else:
            sys.stderr.write("repro-lint: %d files (file rules only)\n" % len(files))

    if args.format == "json":
        render_json(violations, out)
    elif args.format == "sarif":
        render_sarif(violations, known, out)
    else:
        render_text(violations, out)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
