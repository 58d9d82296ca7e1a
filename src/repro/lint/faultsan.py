"""FaultSan: deterministic fault injection for the supervised runner.

Sibling to DetSan (runtime nondeterminism tripwires), FaultSan attacks
from the other side: it
*manufactures* the failures the supervisor in
:mod:`repro.prober.supervise` claims to survive, deterministically, so
a differential test can assert what each recovery path promises: a
retried shard merges byte-identical to an unfaulted run, and an
exhausted one aborts with its exact attempt history.

A :class:`FaultPlan` is a frozen set of :class:`Fault` tuples, each
naming exactly one ``(shard, attempt, site)`` and a fault kind.  The
plan travels *inside the worker payload* (it is a pure picklable
value), so injection works identically under fork and spawn start
methods, and an attempt not named by any fault runs completely clean —
which is what makes the retry differential meaningful: attempt 1
crashes, attempt 2 is indistinguishable from a first try.

Injection sites (the supervised worker calls :func:`inject` at each):

- ``worker.start`` — before ``run_shard``; faults here cost no
  simulation work (crash, hang, sigkill, slow).
- ``worker.result`` — after ``run_shard``, wrapping the result on its
  way to the pipe (corrupt: the result is made unpicklable, which
  surfaces parent-side exactly like a real pickling failure).

Fault kinds: ``crash`` (raise :class:`FaultInjected`), ``hang`` (sleep
``seconds`` — pair with a shard timeout), ``sigkill`` (the worker
SIGKILLs itself: the silent OOM-killer shape), ``corrupt`` (return an
:class:`Unpicklable` wrapper), ``slow`` (sleep ``seconds`` then
continue — exercises deadline slack without failing).

The chaos grid lives in ``tests/prober/test_faultsan.py`` and runs with
the rest of the test suite.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

#: Injection site names, in worker execution order.
SITE_WORKER_START = "worker.start"
SITE_WORKER_RESULT = "worker.result"
SITES = (SITE_WORKER_START, SITE_WORKER_RESULT)

KIND_CRASH = "crash"
KIND_HANG = "hang"
KIND_SIGKILL = "sigkill"
KIND_CORRUPT = "corrupt"
KIND_SLOW = "slow"
KINDS = (KIND_CRASH, KIND_HANG, KIND_SIGKILL, KIND_CORRUPT, KIND_SLOW)


class FaultInjected(RuntimeError):
    """The exception a ``crash`` fault raises inside the worker."""


class Unpicklable:
    """A result wrapper whose pickling always fails.

    Returned from a ``corrupt`` fault: the attempt process fails to
    pickle it for the result pipe, and the parent sees the same
    ``("pipe", detail)`` outcome a genuinely corrupt result would produce.
    """

    def __reduce__(self) -> Tuple[Any, ...]:
        raise FaultInjected("corrupt fault: result made unpicklable")


@dataclass(frozen=True)
class Fault:
    """One injected fault at exactly one ``(shard, attempt, site)``."""

    shard: int
    kind: str
    attempt: int = 1
    site: str = SITE_WORKER_START
    #: Sleep length for ``hang``/``slow`` faults, ignored otherwise.
    seconds: float = 60.0

    def matches(self, shard: int, attempt: int, site: str) -> bool:
        return (
            self.shard == shard
            and self.attempt == attempt
            and self.site == site
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable set of faults for one campaign."""

    faults: Tuple[Fault, ...]

    @classmethod
    def single(cls, shard: int, kind: str, **kwargs: Any) -> "FaultPlan":
        return cls((Fault(shard=shard, kind=kind, **kwargs),))

    @classmethod
    def exhaust(
        cls, shard: int, kind: str, attempts: int, **kwargs: Any
    ) -> "FaultPlan":
        """Fault every attempt ``1..attempts`` of ``shard``: with
        ``max_retries = attempts - 1`` the shard runs out of retries."""
        return cls(
            tuple(
                Fault(shard=shard, kind=kind, attempt=attempt, **kwargs)
                for attempt in range(1, attempts + 1)
            )
        )

    def at(self, shard: int, attempt: int, site: str) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(shard, attempt, site):
                return fault
        return None


def seeded_plan(
    seed: int,
    shards: int,
    kinds: Tuple[str, ...] = KINDS,
    faults: int = 1,
    attempts: int = 1,
    seconds: float = 0.01,
) -> FaultPlan:
    """A reproducible plan drawn from the ``shards x attempts x kinds``
    grid: the same seed always yields the same plan (an explicitly
    seeded ``random.Random`` — the sanctioned DET001 shape)."""
    rng = random.Random(seed)
    chosen = []
    for _ in range(faults):
        kind = kinds[rng.randrange(len(kinds))]
        site = SITE_WORKER_RESULT if kind == KIND_CORRUPT else SITE_WORKER_START
        chosen.append(
            Fault(
                shard=rng.randrange(shards),
                kind=kind,
                attempt=1 + rng.randrange(attempts),
                site=site,
                seconds=seconds,
            )
        )
    return FaultPlan(tuple(chosen))


def inject(
    plan: Optional[FaultPlan],
    shard: int,
    attempt: int,
    site: str,
    value: Any = None,
) -> Any:
    """Fire the plan's fault for ``(shard, attempt, site)``, if any.

    Returns ``value`` unchanged when no fault matches (or the plan is
    ``None``), so call sites thread results straight through.  A
    ``corrupt`` fault swaps ``value`` for an :class:`Unpicklable`.
    """
    if plan is None:
        return value
    fault = plan.at(shard, attempt, site)
    if fault is None:
        return value
    if fault.kind == KIND_CRASH:
        raise FaultInjected(
            "crash fault at %s (shard %d, attempt %d)" % (site, shard, attempt)
        )
    if fault.kind == KIND_HANG or fault.kind == KIND_SLOW:
        time.sleep(fault.seconds)
        return value
    if fault.kind == KIND_SIGKILL:
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable: SIGKILL delivered")  # pragma: no cover
    if fault.kind == KIND_CORRUPT:
        return Unpicklable()
    raise ValueError("unknown fault kind: %r" % fault.kind)
