"""DET001: banned nondeterminism sources.

The simulation runs on a virtual clock and seeded RNG streams; a single
``time.time()`` or module-level ``random.random()`` in a code path that
feeds probe bytes, emission order, or results silently breaks the
``run_parallel == run_single`` bit-identity contract.  This rule bans
the sources outright; the seeded alternatives (``Engine.now``,
``random.Random(seed)``) are always available.

Flagged:

* wall-clock reads: ``time.time``/``time_ns``/``monotonic``/
  ``perf_counter`` (+ ``_ns`` variants), ``time.clock_gettime``
* ``datetime.datetime.now``/``utcnow``/``today``, ``datetime.date.today``
* module-level ``random.*`` functions (``random.random``,
  ``random.randint``, ...) — instances of ``random.Random(seed)`` are
  the sanctioned replacement
* ``random.Random()`` / ``random.SystemRandom`` — an *unseeded* Random
  seeds itself from the OS
* ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``, anything in ``secrets``
* builtin ``hash()`` — PYTHONHASHSEED-dependent on ``str``/``bytes``;
  suppress with ``# repro-lint: disable=DET001`` plus a comment naming
  PYTHONHASHSEED where the salted hash genuinely cannot escape

One structural exemption: the module ``repro.obs.wallclock`` is the
designated wall-clock boundary (run manifests, profiler spans and
supervision deadlines report how long the *host* took), so pure time
reads are permitted **there and only there**.  The exemption covers exactly the wall-clock subset — entropy
sources (``os.urandom``, ``secrets``, module-level ``random.*``) stay
banned even in that module.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..core import Program, Violation
from ..index import resolve_call_target

RULE = "DET001"
DESCRIPTION = (
    "bans wall-clock reads, module-level random.*, os.urandom, "
    "uuid.uuid4 and builtin hash() in simulation code"
)

#: Exact qualified call targets that are always nondeterministic.
BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: The wall-clock subset of :data:`BANNED_CALLS` — permitted only inside
#: the modules below; never the entropy sources.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The allowlisted wall-clock boundary (its docstring holds the rules
#: callers must follow) — the one allowlist, which DetSan imports.
#: Entropy sources stay banned everywhere.
WALLCLOCK_EXEMPT_MODULES = frozenset({"repro.obs.wallclock"})

#: Modules whose entire surface is banned.
BANNED_PREFIXES = ("secrets.",)


def verdict(target: str, call: ast.Call, module: str) -> Optional[str]:
    """The one judgement of a resolved call target: DET001's finding
    when it is a banned source, else None."""
    if target == "hash":
        return (
            "builtin hash() is PYTHONHASHSEED-dependent on str/bytes; "
            "use a keyed/stable hash (e.g. repro's address_checksum or "
            "struct-packed digests) instead"
        )
    if target in WALLCLOCK_CALLS and module in WALLCLOCK_EXEMPT_MODULES:
        return None
    if target in BANNED_CALLS:
        return (
            "call to nondeterministic %s(); simulation code must use "
            "the virtual clock / seeded RNG streams" % target
        )
    if target.startswith(BANNED_PREFIXES):
        return "call into %s — the secrets module is OS-entropy by design" % target
    if target == "random.Random":  # the sanctioned replacement, when seeded
        if call.args or call.keywords:
            return None
        return (
            "random.Random() without a seed self-seeds from the OS; "
            "pass an explicit seed"
        )
    if target.startswith("random."):
        return (
            "module-level %s() draws from the hidden global RNG; "
            "thread a seeded random.Random instance instead" % target
        )
    return None


def check(program: Program) -> List[Violation]:
    violations: List[Violation] = []
    for file in program.files:
        for site in file.index.of(ast.Call):
            target = resolve_call_target(site.node.func, file.index.origins)
            found = target and verdict(target, site.node, file.module)
            if found:
                violations.append(Violation.at(RULE, file.path, site.node, found))
    return violations
