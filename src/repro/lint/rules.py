"""The one rule table and the one driver loop.

Every rule is a row of :data:`RULES`: any object, usually a module, with
``RULE`` (the id), ``DESCRIPTION`` (one line, shown by
``--list-checkers``), ``check(program) -> Iterable[Violation]`` and,
optionally, ``in_scope(module) -> bool`` when the rule only judges some
modules (LNT001 then counts it as having run only there).  A row loops
over ``program.files`` and reads each file's scope index
(:mod:`repro.lint.index`).  **Adding a rule is one row**: ``--select``
validation, ``--list-checkers``, SARIF rule metadata and LNT001's rule
inventory all follow from it; there is nothing else to edit.

The table is ordered: LNT001 is last, because it judges the suppressions
every earlier row consumed.  :func:`lint` is the only loop that applies
suppressions.

Entry points: :func:`lint_source` / :func:`lint_file` / :func:`lint_paths`
run the selected rows over source text, a file or every file under some
paths; the CLI runs them through :func:`lint`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .checkers import det001, det002, det003, lnt001
from .core import (
    Program,
    SourceFile,
    Violation,
    load_sources,
    read_source,
    violation_sort_key,
)

#: The table, in the order the rows run (see the module docstring).
RULES: List[Any] = [det001, det002, det003, lnt001]

#: rule id -> one-line description, for ``--list-checkers`` and SARIF.
DESCRIPTIONS: Dict[str, str] = {}
for _rule in RULES:
    if _rule.RULE in DESCRIPTIONS:
        raise ValueError("duplicate rule id %r in the rule table" % _rule.RULE)
    DESCRIPTIONS[_rule.RULE] = _rule.DESCRIPTION


def select_rules(
    select: Optional[Sequence[str]] = None, rules: Sequence[Any] = RULES
) -> List[Any]:
    """The rows of ``rules`` named by ``select`` (all of them for None)."""
    return [rule for rule in rules if select is None or rule.RULE in select]


def lint(files: Sequence[SourceFile], rules: Sequence[Any] = RULES) -> List[Violation]:
    """The driver loop: run each row over the files and filter its
    findings through the suppressions of the file they land in.  Usage is
    recorded on those shared objects, so LNT001 — last — sees what every
    earlier row consumed."""
    program = Program(files=list(files), known_rules=frozenset(DESCRIPTIONS))
    by_path = {file.path: file for file in program.files}
    violations = [file.error for file in program.files if file.error is not None]
    for rule in rules:
        in_scope = getattr(rule, "in_scope", None)
        for file in program.files:
            if file.error is None and (in_scope is None or in_scope(file.module)):
                file.ran_rules.add(rule.RULE)
        for violation in rule.check(program):
            suppressions = by_path[violation.path].suppressions
            if not suppressions.is_disabled(violation.rule, violation.line):
                violations.append(violation)
    violations.sort(key=violation_sort_key)
    return violations


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    module: Optional[str] = None,
) -> List[Violation]:
    """Lint python source text with the selected rows."""
    return lint([read_source(source, path, module)], select_rules(select))


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Lint every python file under ``paths`` (files or directories)."""
    return lint(load_sources(paths), select_rules(select))


def lint_file(path: str, select: Optional[Sequence[str]] = None) -> List[Violation]:
    return lint_paths([path], select)
