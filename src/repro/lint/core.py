"""Lint framework plumbing: violations, checker registry, suppressions.

A checker is a class with a ``rule`` id and a ``check(context)`` method
yielding :class:`Violation` objects.  Registration is declarative
(:func:`register`), so adding a rule is one new module in
``repro/lint/checkers`` — the CLI, suppression handling, and output
formats come for free.

Suppression layers, narrowest first:

* ``# lint: ordered`` on a line — asserts the iteration on that line is
  deterministic; honoured by DET002 only.
* ``# repro-lint: disable=RULE[,RULE...]`` on a line — silences those
  rules for that line (``disable=all`` for every rule).
* ``# repro-lint: disable-file=RULE[,RULE...]`` anywhere — silences
  those rules for the whole file.

Suppressions are deliberately loud in the source: the point is a
reviewable audit trail of every spot where determinism is asserted
rather than enforced.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: ``# lint: ordered`` — DET002's "this iteration is deterministic" mark.
ORDERED_COMMENT = re.compile(r"#\s*lint:\s*ordered\b")

_DISABLE_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_DISABLE_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def format(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.column, self.rule, self.message)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


class Suppressions:
    """Per-file suppression state parsed from comment tokens.

    Comments are read with :mod:`tokenize`, not substring search, so a
    ``# repro-lint: ...`` inside a string literal does not suppress
    anything.

    Every query *records* which declarations it consumed, so LNT001 can
    report suppressions that never fired (the ``warn_unused_ignores``
    analogue — see :mod:`repro.lint.checkers.lnt001`).
    """

    def __init__(self, source: str):
        self.ordered_lines: Set[int] = set()
        self.disabled_lines: Dict[int, Set[str]] = {}
        #: rule token -> line of the first ``disable-file=`` declaring it.
        self.disabled_file: Dict[str, int] = {}
        self.used_ordered: Set[int] = set()
        self.used_lines: Set[Tuple[int, str]] = set()
        self.used_file: Set[str] = set()
        for comment, line in _iter_comments(source):
            if ORDERED_COMMENT.search(comment):
                self.ordered_lines.add(line)
            match = _DISABLE_FILE.search(comment)
            if match:
                for rule in _parse_rules(match.group(1)):
                    self.disabled_file.setdefault(rule, line)
                continue
            match = _DISABLE_LINE.search(comment)
            if match:
                rules = self.disabled_lines.setdefault(line, set())
                rules.update(_parse_rules(match.group(1)))

    def is_ordered(self, line: int) -> bool:
        if line in self.ordered_lines:
            self.used_ordered.add(line)
            return True
        return False

    def is_disabled(self, rule: str, line: int) -> bool:
        hit = False
        for token in (rule, "all"):
            if token in self.disabled_file:
                self.used_file.add(token)
                hit = True
        rules = self.disabled_lines.get(line)
        if rules:
            for token in (rule, "all"):
                if token in rules:
                    self.used_lines.add((line, token))
                    hit = True
        return hit


def _parse_rules(text: str) -> List[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _iter_comments(source: str) -> Iterator[tuple]:
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type == tokenize.COMMENT:
                yield token.string, token.start[0]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # A file the tokenizer rejects still gets linted from its AST
        # (or reported as a parse failure); it just has no suppressions.
        return


@dataclass
class LintContext:
    """Everything a checker may inspect about one file."""

    path: str
    #: Dotted module path when the file sits under a package root the
    #: runner recognized (``repro.prober.yarrp6``), else the bare stem.
    module: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    lines: List[str] = field(default_factory=list)
    #: Rules that actually ran on this file (selected and interested),
    #: including whole-program rules when the CLI driver ran them.
    #: Post-phase checkers (LNT001) read this to decide which
    #: suppressions were judgeable.
    ran_rules: Set[str] = field(default_factory=set)
    #: Every rule id the toolchain knows (registry + program rules), so
    #: LNT001 can distinguish "unused" from "unknown rule" suppressions.
    known_rules: Set[str] = field(default_factory=set)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Checker:
    """Base class for lint rules.

    Subclasses set :attr:`rule` (the stable id reported to users) and
    :attr:`description`, and implement :meth:`check`.  Suppression
    filtering happens in the runner — checkers yield every candidate.

    ``phase`` is ``"file"`` for ordinary AST rules; ``"post"`` checkers
    run after every file rule (and any whole-program pass) so they can
    inspect what the earlier rules consumed — LNT001 is the only one.
    """

    rule: str = ""
    description: str = ""
    phase: str = "file"

    def interested(self, context: LintContext) -> bool:
        """Whether this checker applies to ``context`` at all (cheap
        module-path gate so rules can scope themselves)."""
        return True

    def check(self, context: LintContext) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(
        self, context: LintContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.rule,
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(checker_class: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not checker_class.rule:
        raise ValueError("checker %r has no rule id" % checker_class.__name__)
    existing = _REGISTRY.get(checker_class.rule)
    if existing is not None and existing is not checker_class:
        raise ValueError("duplicate rule id %r" % checker_class.rule)
    _REGISTRY[checker_class.rule] = checker_class
    return checker_class


def all_checkers() -> Dict[str, Type[Checker]]:
    """rule id -> checker class, for CLI ``--select`` and listings."""
    return dict(_REGISTRY)


def _module_path(path: str) -> str:
    """Dotted module path for ``path``, anchored at a ``repro`` package
    directory when one appears in the path (works from any CWD)."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = normalized.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dirs = parts[:-1]
    if "repro" not in dirs:
        return stem
    anchor = len(dirs) - 1 - dirs[::-1].index("repro")
    pieces = dirs[anchor:] + ([] if stem == "__init__" else [stem])
    return ".".join(pieces)


#: Deterministic output order: (path, line, rule-id, column) — documented
#: in docs/determinism.md, identical for text, JSON and SARIF output.
def violation_sort_key(violation: Violation) -> Tuple[str, int, str, int]:
    return (violation.path, violation.line, violation.rule, violation.column)


@dataclass
class FileLint:
    """Per-file lint state: the context plus what fired and what ran.

    The CLI driver keeps these alive across the whole-program pass so
    program-rule suppressions and LNT001 see one consistent view.
    """

    context: LintContext
    violations: List[Violation] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.context.path


def lint_source_state(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    module: Optional[str] = None,
) -> FileLint:
    """Run the file-phase checkers and return resumable state (no
    post-phase rules yet; see :func:`finish_lint`)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        context = LintContext(
            path=path,
            module=module if module is not None else _module_path(path),
            source=source,
            tree=ast.Module(body=[], type_ignores=[]),
            suppressions=Suppressions(source),
            lines=source.splitlines(),
        )
        state = FileLint(context=context)
        state.violations.append(
            Violation(
                rule="E999",
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 0) + 1,
                message="syntax error: %s" % (error.msg or "unparseable"),
            )
        )
        return state
    context = LintContext(
        path=path,
        module=module if module is not None else _module_path(path),
        source=source,
        tree=tree,
        suppressions=Suppressions(source),
        lines=source.splitlines(),
    )
    context.known_rules.update(_REGISTRY)
    state = FileLint(context=context)
    chosen = _REGISTRY if select is None else {
        rule: _REGISTRY[rule] for rule in select if rule in _REGISTRY
    }
    for rule in sorted(chosen):
        checker_class = chosen[rule]
        if checker_class.phase != "file":
            continue
        checker = checker_class()
        if not checker.interested(context):
            continue
        context.ran_rules.add(rule)
        for violation in checker.check(context):
            if context.suppressions.is_disabled(violation.rule, violation.line):
                continue
            state.violations.append(violation)
    return state


def finish_lint(
    state: FileLint, select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run post-phase checkers (LNT001) on completed state, then sort."""
    chosen = _REGISTRY if select is None else {
        rule: _REGISTRY[rule] for rule in select if rule in _REGISTRY
    }
    for rule in sorted(chosen):
        checker_class = chosen[rule]
        if checker_class.phase != "post":
            continue
        checker = checker_class()
        if not checker.interested(state.context):
            continue
        state.context.ran_rules.add(rule)
        for violation in checker.check(state.context):
            if state.context.suppressions.is_disabled(violation.rule, violation.line):
                continue
            state.violations.append(violation)
    state.violations.sort(key=violation_sort_key)
    return state.violations


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    module: Optional[str] = None,
) -> List[Violation]:
    """Lint python source text; the library core every entry point uses."""
    return finish_lint(lint_source_state(source, path, select, module), select)


def lint_file(path: str, select: Optional[Sequence[str]] = None) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, select=select)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Lint every python file under ``paths`` (files or directories)."""
    violations: List[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path, select=select))
    violations.sort(key=violation_sort_key)
    return violations
