"""What the wrapping runtime sanitizers (DetSan, ShardSan) share.

A wrapping sanitizer is a context manager that swaps attributes of
modules or classes for tripwires, decides per call whether the caller is
inside the contract, and either records or raises.  This base owns the
parts that are the same for every such sanitizer:

* ``mode`` — ``"raise"`` aborts on the first hit, ``"record"`` collects
  :class:`Report` rows in ``reports`` and lets the call proceed;
* one LIFO patch stack — :meth:`Sanitizer._patch` remembers what
  ``owner.name`` was (or that it was absent, for a class that inherited
  the attribute) and :meth:`Sanitizer._restore` puts it back newest
  first, so regions nest and a failed install leaves nothing behind;
* the caller scope — only calls from ``repro.*`` modules are inside the
  contract (the test harness, ``multiprocessing`` internals and
  third-party code pass through), minus the subclass's
  ``exempt_prefixes``;
* :meth:`Sanitizer._report`, the single record-or-raise step.

A subclass supplies ``_install()`` (which calls ``_patch``), its
exception types, and the two message templates.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from types import FrameType
from typing import Any, List, Tuple, Type

#: Frames of the offender's stack kept on each report.
_STACK_FRAMES = 12


@dataclass
class Report:
    """One recorded tripwire hit."""

    kind: str  # what family of operation tripped ("time", "setattr", ...)
    target: str  # e.g. "time.perf_counter" or "Router.interfaces.append"
    caller: str  # __name__ of the calling module
    stack: List[str]


class Sanitizer:
    """Context manager base: modes, reports, patch stack, caller scope."""

    #: Raised on a hit in ``raise`` mode / on misconfiguration.
    violation: Type[Exception] = RuntimeError
    usage_error: Type[Exception] = RuntimeError
    #: Caller-module prefixes that never trip, on top of "not repro.*".
    exempt_prefixes: Tuple[str, ...] = ()
    #: ``% (kind, target, caller)`` — one report as one line.
    summary_format = "%s %s from %s"
    #: ``% summary`` — the violation message in ``raise`` mode.
    violation_format = "%s"

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "record"):
            raise self.usage_error(
                "mode must be 'raise' or 'record', got %r" % mode
            )
        self.mode = mode
        self.reports: List[Report] = []
        #: LIFO (owner, name, original or None when absent) restore stack.
        self._patched: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> Any:
        try:
            self._install()
        except Exception:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _install(self) -> None:
        raise NotImplementedError

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name`` (a module function or a class attribute)."""
        self._patched.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, value)

    def _restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _in_scope(self, caller: str) -> bool:
        if caller.startswith(self.exempt_prefixes):
            return False
        return caller == "repro" or caller.startswith("repro.")

    def summary(self, report: Report) -> str:
        return self.summary_format % (report.kind, report.target, report.caller)

    def _report(
        self, kind: str, target: str, caller: str, frame: FrameType
    ) -> None:
        report = Report(
            kind, target, caller, traceback.format_stack(frame, limit=_STACK_FRAMES)
        )
        self.reports.append(report)
        if self.mode == "raise":
            raise self.violation(self.violation_format % self.summary(report))
