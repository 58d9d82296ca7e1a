"""DetSan — the runtime determinism sanitizer.

The static rules (DET001/DET101/RNG101) prove what the *parsed* program
can reach; DetSan checks what the *running* program actually touches.
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
  boundary — see :data:`WALLCLOCK_MODULES`);
* this module itself (so nested regions and the pytest plugin can
  manage patches while one is active).

``mode="record"`` logs instead of raising — the ``probe --detsan`` flag
uses it to run a full campaign under instrumentation and then verify
the dump is byte-identical to a clean rerun.

Modes, the LIFO patch stack and the caller scope are the shared
:class:`~repro.lint.sanitizer.Sanitizer` base; ``require_hash_seed=True``
additionally asserts ``PYTHONHASHSEED`` is pinned to a fixed integer
before entering (hash randomization is process-global nondeterminism no
monkeypatch can intercept).
"""

from __future__ import annotations

import os
import random
import secrets
import sys
import time
import uuid
from typing import Any, Callable

from .sanitizer import Sanitizer

#: The modules whose *time* reads pass through
#: (kept in sync with repro.lint.checkers.det001.WALLCLOCK_EXEMPT_MODULES):
#: the Stopwatch boundary, the wall-clock profiler, and the supervised
#: runner's deadline module.  Entropy reads trip regardless of caller.
WALLCLOCK_MODULES = frozenset(
    {"repro.obs.wallclock", "repro.obs.profiler", "repro.prober.deadline"}
)

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


class DetSan(Sanitizer):
    """Context manager installing the nondeterminism tripwires."""

    violation = DetSanViolation
    usage_error = DetSanUsageError
    #: DetSan's own machinery must be able to run while patched.
    exempt_prefixes = ("repro.lint.detsan",)
    summary_format = "%s %s called from %s"
    violation_format = (
        "DetSan: %s — banned inside a determinism-sanitized region (see "
        "repro.lint.detsan; the seeded/virtual-clock alternatives are "
        "documented in docs/determinism.md)"
    )

    def __init__(self, mode: str = "raise", require_hash_seed: bool = False):
        super().__init__(mode)
        self.require_hash_seed = require_hash_seed

    def __enter__(self) -> "DetSan":
        if self.require_hash_seed and not hash_seed_pinned():
            raise DetSanUsageError(
                "DetSan(require_hash_seed=True): PYTHONHASHSEED must be set "
                "to a fixed integer (found %r)"
                % os.environ.get("PYTHONHASHSEED", "<unset>")
            )
        return super().__enter__()

    def _install(self) -> None:
        for module, names, kind in _TABLES:
            for name in names:
                original = getattr(module, name, None)
                if callable(original):
                    target = "%s.%s" % (module.__name__, name)
                    self._patch(
                        module, name, self._tripwire(original, target, kind)
                    )

    def _tripwire(
        self, original: Callable[..., Any], target: str, kind: str
    ) -> Callable[..., Any]:
        def tripwire(*args: Any, **kwargs: Any) -> Any:
            frame = sys._getframe(1)
            caller = frame.f_globals.get("__name__", "")
            if self._in_scope(caller) and not (
                kind == "time" and caller in WALLCLOCK_MODULES
            ):
                self._report(kind, target, caller, frame)
            return original(*args, **kwargs)

        tripwire.__name__ = getattr(original, "__name__", target)
        return tripwire
