"""The one rule table and the one driver loop.

Every rule — per-file and whole-program alike — is a row of
:data:`RULES`: any object, usually a module, with ``RULE`` (the id),
``DESCRIPTION`` (one line, shown by ``--list-checkers``),
``check(program) -> Iterable[Violation]`` and, optionally,
``in_scope(module) -> bool`` when the rule only judges some modules
(LNT001 then counts it as having run only there).  A per-file row loops
over ``program.files`` and reads each file's scope index
(:mod:`repro.lint.index`); a whole-program row reads ``program.facts`` and
``program.graph``.  **Adding a rule is one row**: ``--select`` validation,
``--list-checkers``, SARIF rule metadata and LNT001's rule inventory all
follow from it; there is nothing else to edit.

The table is ordered: :data:`FILE_RULES` first, then
:data:`PROGRAM_RULES` (the rows that need facts and the call graph — the
per-file library entry points leave them out), and LNT001 last, because
it judges the suppressions every earlier row consumed.  :func:`run_rules`
is the only loop that applies suppressions.

Entry points: :func:`lint_source` / :func:`lint_file` / :func:`lint_paths`
run the per-file rows plus LNT001; :func:`lint_program_paths` runs the
whole-program rows; the CLI runs the selected rows of the whole table
through :func:`lint`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .checkers import det001, det002, det003, lnt001
from .core import (
    Program,
    SourceFile,
    Violation,
    load_sources,
    read_source,
    violation_sort_key,
)
from .program import det101, perf, rng101
from .program.facts import extract_facts
from .program.graph import build_graph

#: Rows that judge one file's scope index at a time.
FILE_RULES: List[Any] = [det001, det002, det003]

#: Rows that judge the program: they read the facts and the call graph.
PROGRAM_RULES: List[Any] = [det101, rng101, *perf.RULES]

#: The table, in the order the rows run (see the module docstring).
RULES: List[Any] = [*FILE_RULES, *PROGRAM_RULES, lnt001]

#: rule id -> one-line description, for ``--list-checkers`` and SARIF.
DESCRIPTIONS: Dict[str, str] = {}
for _rule in RULES:
    if _rule.RULE in DESCRIPTIONS:
        raise ValueError("duplicate rule id %r in the rule table" % _rule.RULE)
    DESCRIPTIONS[_rule.RULE] = _rule.DESCRIPTION

#: What the per-file library entry points run.
_PER_FILE: List[Any] = [*FILE_RULES, lnt001]


def select_rules(
    select: Optional[Sequence[str]] = None, rules: Sequence[Any] = RULES
) -> List[Any]:
    """The rows of ``rules`` named by ``select`` (all of them for None)."""
    return [rule for rule in rules if select is None or rule.RULE in select]


def analyze(files: Sequence[SourceFile]) -> Program:
    """The files plus their facts and call graph (what a whole-program
    row needs)."""
    facts = {file.path: extract_facts(file) for file in files}
    return Program(
        files=list(files), facts=facts, graph=build_graph(sorted(facts.items()))
    )


def run_rules(program: Program, rules: Sequence[Any] = RULES) -> List[Violation]:
    """The driver loop: run each row over the program and filter its
    findings through the suppressions of the file they land in.  Usage is
    recorded on those shared objects, so LNT001 — last — sees what every
    earlier row consumed."""
    program.known_rules = frozenset(DESCRIPTIONS)
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


def lint(
    files: Sequence[SourceFile], rules: Sequence[Any] = RULES
) -> Tuple[List[Violation], Program]:
    """The pipeline: facts and graph when a whole-program row is among
    ``rules``, then the driver loop."""
    if any(rule in PROGRAM_RULES for rule in rules):
        program = analyze(files)
    else:
        program = Program(files=list(files))
    return run_rules(program, rules), program


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    module: Optional[str] = None,
) -> List[Violation]:
    """Lint python source text with the per-file rows plus LNT001."""
    return lint([read_source(source, path, module)], select_rules(select, _PER_FILE))[0]


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Lint every python file under ``paths`` (files or directories)."""
    return lint(load_sources(paths), select_rules(select, _PER_FILE))[0]


def lint_file(path: str, select: Optional[Sequence[str]] = None) -> List[Violation]:
    return lint_paths([path], select)


def lint_program_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> Tuple[List[Violation], Program]:
    """Standalone whole-program lint of ``paths`` (files/directories)."""
    return lint(load_sources(paths), select_rules(select, PROGRAM_RULES))
