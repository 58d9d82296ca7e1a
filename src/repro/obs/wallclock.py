"""The single allowlisted wall-clock boundary.

Everything under the virtual clock is banned from reading host time
(DET001), because one wall-clock read in a path that feeds probe bytes
or event order silently breaks the bit-identity contracts.  But some
code legitimately wants to know *how long the host took* — a statement
about the machine, not about the simulated campaign.  This module is the
one place that read may happen; the DET001 checker and DetSan allowlist
exactly the module path ``repro.obs.wallclock`` and nothing else.

Rules for callers:

* call only where the answer is a fact about the host: the top-level
  run boundary (CLI, benchmark harness) and wall-profiler spans
  (:mod:`repro.obs.profiler`) — never from engine, netsim, campaign,
  prober-loop, or analysis code;
* the value may be *reported* (manifest ``wallclock`` section, bench
  JSON) but must never influence simulation behaviour;
* determinism-sensitive consumers compare manifests through
  :func:`repro.obs.manifest.deterministic_view`, which strips the
  wall-clock section.
"""

from __future__ import annotations

import time


def now() -> float:
    """Monotonic host seconds; meaningful only as a difference."""
    return time.perf_counter()


class Stopwatch:
    """Measures host duration across a top-level run boundary."""

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = now()

    def elapsed_seconds(self) -> float:
        return now() - self._started
