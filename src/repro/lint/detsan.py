"""DetSan — the runtime determinism sanitizer.

The static rule DET001 finds the banned calls the *parsed* program
spells out; DetSan checks what the *running* program actually touches,
including a read two calls away through a callable the source never
names.
Inside a ``DetSan`` region every banned nondeterminism source —
wall-clock reads, the module-level ``random`` API, ``os.urandom``,
``uuid.uuid1/uuid4``, ``secrets`` — is patched to a tripwire that
raises on the spot, naming the offending call and its caller::

    with DetSan():
        result = run_campaign(...)        # trips on any entropy read

Scoping: only calls *from* ``repro.*`` modules trip; the test harness,
``multiprocessing`` internals, and third-party code pass through to the
real functions.  Two standing exemptions mirror the static rules:

* wall-clock reads from ``repro.obs.wallclock`` (the single allowlisted
  boundary: DET001's ``WALLCLOCK_EXEMPT_MODULES``, the same object);
* this module itself (so nested regions and the pytest plugin can
  manage patches while one is active).

Patches go on one LIFO stack: each remembers what ``module.name`` was
and the exit puts them back newest first, so regions nest and a failed
install leaves nothing behind.  ``hash(str)`` is outside its reach:
hash randomization is process-global, and the cross-process hash-seed
test (``tests/prober/test_hashseed_regression.py``) guards it instead.
"""

from __future__ import annotations

import os
import random
import secrets
import sys
import time
import uuid
from typing import Any, Callable, FrozenSet, List, Tuple

from .checkers import det001

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


class DetSanViolation(RuntimeError):
    """A banned nondeterminism source was called inside a DetSan region."""


class DetSan:
    """Context manager installing the nondeterminism tripwires; the first
    hit raises :class:`DetSanViolation`."""

    def __init__(self) -> None:
        #: LIFO (module, name, original) restore stack.
        self._patched: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "DetSan":
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

    def _install(self) -> None:
        for module, names, kind in _TABLES:
            # Only time reads have an allowlist: entropy trips from anywhere.
            # Read through the module, not bound at import: the static rule
            # and this sanitizer share one allowlist object and cannot drift.
            exempt = det001.WALLCLOCK_EXEMPT_MODULES if kind == "time" else frozenset()
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
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if _in_scope(caller) and caller not in exempt:
                raise DetSanViolation(
                    "DetSan: %s %s called from %s — banned inside a "
                    "determinism-sanitized region (see repro.lint.detsan; the "
                    "seeded/virtual-clock alternatives are documented in "
                    "docs/determinism.md)" % (kind, target, caller)
                )
            return original(*args, **kwargs)

        tripwire.__name__ = getattr(original, "__name__", target)
        return tripwire


def _in_scope(caller: str) -> bool:
    """Only ``repro.*`` callers are inside the contract; DetSan's own
    machinery must be able to run while patched."""
    return caller != __name__ and (caller == "repro" or caller.startswith("repro."))
