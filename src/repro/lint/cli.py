"""``repro-lint`` — run the determinism & protocol-invariant checkers.

Usage::

    repro-lint src/                      # file rules + whole-program pass
    repro-lint --format json src/ > v.json
    repro-lint --format sarif src/ > lint.sarif
    repro-lint --select DET101,RNG101 src/repro
    repro-lint --cache .lint-cache.json src/   # warm-start the analysis
    repro-lint --changed src/                  # only files dirty vs git HEAD
    repro-lint --exclude tests/lint/fixtures tests/ benchmarks/
    repro-lint --list-checkers

Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

Pipeline (:mod:`repro.lint.rules`): every file is read, parsed, tokenized
and indexed once; the selected rows of the one rule table run in table
order — the per-file rows, then the whole-program rows over the facts
and call graph, then LNT001, which judges the suppressions the earlier
rows consumed — and the findings are sorted by (path, line, rule-id):
identical order in text, JSON and SARIF output.

The facts cache is opt-in (``--cache PATH``): the default invocation
writes nothing to disk.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional, Sequence, Set, TextIO

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
        "--changed",
        action="store_true",
        help="lint only files changed versus git HEAD (tracked "
        "modifications plus untracked files) under the given paths — "
        "fast pre-commit runs; falls back to the full file set when git "
        "is unavailable or this is not a work tree",
    )
    parser.add_argument(
        "--no-program",
        action="store_true",
        help="skip the whole-program pass (DET101/RNG101/OBS101/MUT10x/PERF10x)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="JSON facts cache for the whole-program pass (opt-in; "
        "created/updated atomically)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analysis statistics (files, graph size, cache hits) "
        "to stderr",
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


def _git_lines(command: List[str]) -> Optional[List[str]]:
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def changed_file_set() -> Optional[Set[str]]:
    """Absolute paths of files changed versus git HEAD, or None when
    git is unavailable / the cwd is not inside a work tree.

    "Changed" is the pre-commit notion: tracked files with staged or
    unstaged modifications (``git diff --name-only HEAD``) plus
    untracked files that are not ignored (``git ls-files --others
    --exclude-standard``).
    """
    toplevel = _git_lines(["git", "rev-parse", "--show-toplevel"])
    if not toplevel:
        return None
    root = toplevel[0]
    changed: Set[str] = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        lines = _git_lines(command)
        if lines is None:
            return None
        changed.update(
            os.path.normcase(os.path.abspath(os.path.join(root, line)))
            for line in lines
        )
    return changed


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
    rules = [
        rule
        for rule in rules_mod.select_rules(select)
        if not (args.no_program and rule in rules_mod.PROGRAM_RULES)
    ]

    changed: Optional[Set[str]] = None
    if args.changed:
        changed = changed_file_set()
        if changed is None:
            sys.stderr.write(
                "repro-lint: --changed needs git and a work tree; "
                "linting the full file set\n"
            )

    files: List[SourceFile] = []
    try:
        for file_path in iter_python_files(args.paths):
            if excluded(file_path, args.exclude):
                continue
            if changed is not None and (
                os.path.normcase(os.path.abspath(file_path)) not in changed
            ):
                continue
            files.append(load_source(file_path))
    except OSError as error:
        out.write("error: %s\n" % error)
        return 2

    try:
        violations, program = rules_mod.lint(files, rules, args.cache)
    except OSError as error:
        out.write("error: could not write cache: %s\n" % error)
        return 2

    if args.stats:
        if program.graph is not None:
            sys.stderr.write(
                "repro-lint: %d files, %d functions, %d call edges, "
                "cache %d hit / %d miss\n"
                % (
                    len(files),
                    len(program.graph.nodes),
                    program.graph.edge_count,
                    program.cache_hits,
                    program.cache_misses,
                )
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
