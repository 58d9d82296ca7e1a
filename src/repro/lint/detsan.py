"""DetSan — the runtime determinism sanitizer.

The static rule DET001 finds the banned calls the *parsed* program
spells out; DetSan checks what the *running* program actually touches,
including a read two calls away through a callable the source never
names.
Inside a ``DetSan`` region every banned nondeterminism source —
wall-clock reads, the module-level ``random`` API, ``os.urandom``,
``uuid.uuid1/uuid4``, ``secrets`` — is patched to a tripwire that
records the offending call with its caller and stack, and (in
``raise`` mode) aborts on the spot::

    with DetSan(mode="raise"):
        result = run_campaign(...)        # trips on any entropy read

Scoping: only calls *from* ``repro.*`` modules trip; the test harness,
``multiprocessing`` internals, and third-party code pass through to the
real functions.  Two standing exemptions mirror the static rules:

* wall-clock reads from ``repro.obs.wallclock`` (the single allowlisted
  boundary: DET001's ``WALLCLOCK_EXEMPT_MODULES``, the same object);
* this module itself (so nested regions and the pytest plugin can
  manage patches while one is active).

``mode="record"`` logs instead of raising — the ``probe --detsan`` flag
uses it to run a full campaign under instrumentation and then verify
the dump is byte-identical to a clean rerun.  The reports live in the
process that entered the region: a tripwire hit inside a child process
never reaches it.

Patches go on one LIFO stack: each remembers what ``module.name`` was
and the exit puts them back newest first, so regions nest and a failed
install leaves nothing behind.  ``require_hash_seed=True`` additionally
asserts ``PYTHONHASHSEED`` is pinned to a fixed integer before entering
(hash randomization is process-global nondeterminism no monkeypatch can
intercept).
"""

from __future__ import annotations

import os
import random
import secrets
import sys
import time
import traceback
import uuid
from dataclasses import dataclass
from types import FrameType
from typing import Any, Callable, FrozenSet, List, Tuple

_TIME_FUNCS = (
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "clock_gettime",
    "clock_gettime_ns",
)

_RANDOM_FUNCS = (
    "random",
    "randint",
    "randrange",
    "getrandbits",
    "randbytes",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "seed",
)

_OS_FUNCS = ("urandom", "getrandom")
_UUID_FUNCS = ("uuid1", "uuid4")
_SECRETS_FUNCS = ("token_bytes", "token_hex", "token_urlsafe", "randbelow", "randbits", "choice")

#: (module, guarded function names, report kind)
_TABLES = (
    (time, _TIME_FUNCS, "time"),
    (random, _RANDOM_FUNCS, "random"),
    (os, _OS_FUNCS, "entropy"),
    (uuid, _UUID_FUNCS, "entropy"),
    (secrets, _SECRETS_FUNCS, "entropy"),
)


#: Frames of the offender's stack kept on each report.
_STACK_FRAMES = 12


@dataclass
class Report:
    """One recorded tripwire hit."""

    kind: str  # "time", "random" or "entropy"
    target: str  # e.g. "time.perf_counter"
    caller: str  # __name__ of the calling module
    stack: List[str]


class DetSanViolation(RuntimeError):
    """A banned nondeterminism source was called inside a DetSan region."""


class DetSanUsageError(RuntimeError):
    """DetSan itself was misconfigured (e.g. PYTHONHASHSEED not pinned)."""


def hash_seed_pinned() -> bool:
    """Whether this interpreter was started with a pinned PYTHONHASHSEED.

    ``PYTHONHASHSEED`` must be present in the environment and be a fixed
    integer — absent or ``"random"`` both mean ``hash(str)`` varies per
    process, which no runtime patch can repair.
    """
    value = os.environ.get("PYTHONHASHSEED", "")
    if not value or value == "random":
        return False
    try:
        int(value)
    except ValueError:
        return False
    return True


class DetSan:
    """Context manager installing the nondeterminism tripwires.

    ``mode="raise"`` aborts on the first hit; ``"record"`` collects
    :class:`Report` rows in ``reports`` and lets the call proceed.
    """

    def __init__(self, mode: str = "raise", require_hash_seed: bool = False):
        if mode not in ("raise", "record"):
            raise DetSanUsageError("mode must be 'raise' or 'record', got %r" % mode)
        self.mode = mode
        self.require_hash_seed = require_hash_seed
        self.reports: List[Report] = []
        #: LIFO (module, name, original) restore stack.
        self._patched: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "DetSan":
        if self.require_hash_seed and not hash_seed_pinned():
            raise DetSanUsageError(
                "DetSan(require_hash_seed=True): PYTHONHASHSEED must be set "
                "to a fixed integer (found %r)"
                % os.environ.get("PYTHONHASHSEED", "<unset>")
            )
        try:
            self._install()
        except Exception:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _patch(self, module: Any, name: str, value: Any) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def _restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def summary(self, report: Report) -> str:
        """One report as one line."""
        return "%s %s called from %s" % (report.kind, report.target, report.caller)

    def _install(self) -> None:
        # DET001's allowlist object, so the static rule and this sanitizer
        # cannot drift; imported here, not at module level, so `repro-sim`
        # start-up never loads the static half of repro.lint.
        from .checkers.det001 import WALLCLOCK_EXEMPT_MODULES

        for module, names, kind in _TABLES:
            # Only time reads have an allowlist: entropy trips from anywhere.
            exempt = WALLCLOCK_EXEMPT_MODULES if kind == "time" else frozenset()
            for name in names:
                original = getattr(module, name, None)
                if callable(original):
                    target = "%s.%s" % (module.__name__, name)
                    self._patch(
                        module, name, self._tripwire(original, target, kind, exempt)
                    )

    def _tripwire(
        self,
        original: Callable[..., Any],
        target: str,
        kind: str,
        exempt: FrozenSet[str],
    ) -> Callable[..., Any]:
        def tripwire(*args: Any, **kwargs: Any) -> Any:
            frame = sys._getframe(1)
            caller = frame.f_globals.get("__name__", "")
            if _in_scope(caller) and caller not in exempt:
                self._report(kind, target, caller, frame)
            return original(*args, **kwargs)

        tripwire.__name__ = getattr(original, "__name__", target)
        return tripwire

    def _report(self, kind: str, target: str, caller: str, frame: FrameType) -> None:
        report = Report(
            kind, target, caller, traceback.format_stack(frame, limit=_STACK_FRAMES)
        )
        self.reports.append(report)
        if self.mode == "raise":
            raise DetSanViolation(
                "DetSan: %s — banned inside a determinism-sanitized region (see "
                "repro.lint.detsan; the seeded/virtual-clock alternatives are "
                "documented in docs/determinism.md)" % self.summary(report)
            )


def _in_scope(caller: str) -> bool:
    """Only ``repro.*`` callers are inside the contract; DetSan's own
    machinery must be able to run while patched."""
    return caller != __name__ and (caller == "repro" or caller.startswith("repro."))
