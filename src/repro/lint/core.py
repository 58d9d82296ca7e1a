"""Lint plumbing every rule shares: violations, the source record, suppressions.

One file is read **once**: :func:`load_source` is the only ``open()`` of
lint input, and :func:`read_source` does the only ``ast.parse``, the only
tokenizer pass (every comment directive — the three suppression forms
below and the ``# repro-lint: worker-boundary`` marker — is read from
those comment tokens, so a directive inside a string literal does
nothing) and the only index build (:mod:`repro.lint.index`).  The result
is a :class:`SourceFile`, the one per-file record the rule table in
:mod:`repro.lint.rules` runs over; a :class:`Program` is the set of them.

A file that cannot be decoded or parsed still yields a record: an empty
index and one ``E999`` finding, so the other files are linted regardless.

Suppression layers, narrowest first:

* ``# lint: ordered`` on a line — asserts the iteration on that line is
  deterministic; honoured by DET002 only.
* ``# repro-lint: disable=RULE[,RULE...]`` on a line — silences those
  rules for that line (``disable=all`` for every rule but LNT001).
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
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .index import ScopeIndex, build_index

#: ``# lint: ordered`` — DET002's "this iteration is deterministic" mark.
ORDERED_COMMENT = re.compile(r"#\s*lint:\s*ordered\b")

_DISABLE_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_DISABLE_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")

#: The rule that reports unused suppressions (:mod:`.checkers.lnt001`).
_SUPPRESSION_RULE = "LNT001"


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    @classmethod
    def at(cls, rule: str, path: str, node: ast.AST, message: str) -> "Violation":
        """A finding anchored at ``node``'s first character."""
        return cls(
            rule,
            path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )

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
    """Per-file suppression state parsed from the file's comment tokens
    (``line -> comment text``, see :func:`read_comments`).

    Every query *records* which declarations it consumed, so LNT001 can
    report suppressions that never fired (the ``warn_unused_ignores``
    analogue — see :mod:`repro.lint.checkers.lnt001`).
    """

    def __init__(self, comments: Dict[int, str]):
        self.ordered_lines: Set[int] = set()
        self.disabled_lines: Dict[int, Set[str]] = {}
        #: rule token -> line of the first ``disable-file=`` declaring it.
        self.disabled_file: Dict[str, int] = {}
        self.used_ordered: Set[int] = set()
        self.used_lines: Set[Tuple[int, str]] = set()
        self.used_file: Set[str] = set()
        for line, comment in comments.items():
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
        # ``all`` does not cover LNT001, the rule that judges suppressions:
        # an unused ``disable=all`` would otherwise hide its own finding.
        tokens = (rule,) if rule == _SUPPRESSION_RULE else (rule, "all")
        for token in tokens:
            if token in self.disabled_file:
                self.used_file.add(token)
                hit = True
        rules = self.disabled_lines.get(line)
        if rules:
            for token in tokens:
                if token in rules:
                    self.used_lines.add((line, token))
                    hit = True
        return hit


def _parse_rules(text: str) -> List[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def read_comments(source: str) -> Dict[int, str]:
    """``line -> comment text`` from one tokenizer pass.  Comments are read
    with :mod:`tokenize`, not substring search, so a ``# repro-lint: ...``
    inside a string literal is not a directive."""
    comments: Dict[int, str] = {}
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # A file the tokenizer rejects is reported as a parse failure; it
        # keeps the directives read before the bad token.
        pass
    return comments


@dataclass
class SourceFile:
    """The one per-file record: what every rule may inspect about a file,
    plus what the driver learned while running the rules over it."""

    path: str
    #: Dotted module path when the file sits under a package root the
    #: loader recognized (``repro.prober.yarrp6``), else the bare stem.
    module: str
    source: str
    tree: ast.Module
    index: ScopeIndex
    suppressions: Suppressions
    #: The ``E999`` finding when the file could not be decoded or parsed
    #: (``tree`` and ``index`` are then empty and no rule judges the file).
    error: Optional[Violation] = None
    #: Rules that ran on this file (selected, and in scope for its
    #: module); LNT001 reads this to decide which suppressions were
    #: judgeable.
    ran_rules: Set[str] = field(default_factory=set)


@dataclass
class Program:
    """What a rule's ``check(program)`` receives: the files."""

    files: List[SourceFile]
    #: Every rule id in the table, so LNT001 can tell "unused" from
    #: "unknown rule" suppressions.
    known_rules: FrozenSet[str] = frozenset()


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


def read_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    error: Optional[Violation] = None,
) -> SourceFile:
    """Parse, tokenize and index ``source`` — once each."""
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as failure:  # ValueError: a NUL byte
        tree = ast.Module(body=[], type_ignores=[])
        error = Violation(
            rule="E999",
            path=path,
            line=getattr(failure, "lineno", None) or 1,
            column=(getattr(failure, "offset", None) or 0) + 1,
            message="syntax error: %s" % (getattr(failure, "msg", None) or failure),
        )
    comments = read_comments(source)
    return SourceFile(
        path=path,
        module=module if module is not None else _module_path(path),
        source=source,
        tree=tree,
        index=build_index(tree, comments),
        suppressions=Suppressions(comments),
        error=error,
    )


def load_source(path: str) -> SourceFile:
    """Read and index one file — the only ``open()`` of lint input.  An
    unreadable path raises ``OSError``; undecodable bytes are an ``E999``
    finding at ``path:1:1``, like a file that does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except UnicodeDecodeError as failure:
        return read_source(
            "",
            path,
            error=Violation("E999", path, 1, 1, "not valid UTF-8: %s" % failure),
        )
    return read_source(source, path)


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


def load_sources(paths: Sequence[str]) -> List[SourceFile]:
    """A record for every python file under ``paths`` (files or directories)."""
    return [load_source(file_path) for file_path in iter_python_files(paths)]
