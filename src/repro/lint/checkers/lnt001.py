"""LNT001: unused lint suppressions (the ``warn_unused_ignores`` analogue).

Suppression comments are a reviewed audit trail; one that no longer
fires is worse than dead code — it asserts a determinism exception that
the code stopped needing, and it will silently swallow a *future*
violation on that line.  This rule reports:

* ``# repro-lint: disable=RULE`` lines where RULE ran but produced no
  violation on that line;
* ``# repro-lint: disable-file=RULE`` declarations that suppressed
  nothing anywhere in the file;
* ``# lint: ordered`` annotations on lines where DET002 ran and found
  no set iteration to excuse;
* suppressions naming rule ids the toolchain does not know (typos).

A suppression for a rule that did *not* run (deselected via
``--select``, or scoped out by the rule's ``in_scope()``) is left alone:
its usefulness was not judgeable on this run.  Neither is anything in a
file that failed to parse — no rule ran there.

LNT001 is the last row of the rule table, so usage recorded by any rule
counts.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List

from ..core import Program, SourceFile, Violation

RULE = "LNT001"
DESCRIPTION = (
    "warns on unused '# repro-lint: disable=' / '# lint: ordered' "
    "suppressions and on suppressions naming unknown rules"
)

#: Rule whose usage governs ``# lint: ordered`` annotations.
ORDERED_RULE = "DET002"


def check(program: Program) -> List[Violation]:
    violations: List[Violation] = []
    for file in program.files:
        if file.error is None:
            violations.extend(
                Violation(RULE, file.path, line, 1, message)
                for line, message in _unused(file, program.known_rules)
            )
    return violations


def _unused(file: SourceFile, known_rules: FrozenSet[str]) -> Iterator[tuple]:
    suppressions = file.suppressions
    for line in sorted(suppressions.disabled_lines):
        for token in sorted(suppressions.disabled_lines[line]):
            if (line, token) not in suppressions.used_lines:
                yield from _judge(file, known_rules, line, token, "disable=%s" % token)
    for token in sorted(suppressions.disabled_file):
        if token not in suppressions.used_file:
            line = suppressions.disabled_file[token]
            yield from _judge(file, known_rules, line, token, "disable-file=%s" % token)
    if ORDERED_RULE in file.ran_rules:
        for line in sorted(suppressions.ordered_lines - suppressions.used_ordered):
            yield line, (
                "unused '# lint: ordered' annotation: %s found no set "
                "iteration on this line" % ORDERED_RULE
            )


def _judge(
    file: SourceFile, known_rules: FrozenSet[str], line: int, token: str, what: str
) -> Iterator[tuple]:
    """The finding, if any, for one suppression that never fired."""
    if token == "all":
        if file.ran_rules - {RULE}:
            yield line, "unused suppression '%s': no rule fired here" % what
    elif token not in known_rules:
        yield line, (
            "suppression '%s' names an unknown rule (try --list-checkers)" % what
        )
    elif token in file.ran_rules:
        yield line, (
            "unused suppression '%s': the rule ran and found nothing to "
            "suppress here" % what
        )
