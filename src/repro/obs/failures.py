"""Failure telemetry for the supervised parallel runner.

A :class:`FailureReport` records what the supervisor in
:mod:`repro.prober.supervise` had to do to finish a campaign: every
worker fault (crash, timeout, silent death, corrupt result), every
retry, and every shard that fell back to in-parent serial execution.
The counters live in an ordinary :class:`~repro.obs.metrics.
MetricsRegistry`, so the report speaks the same dialect as the rest of
the telemetry layer, but the registry is *private to the report* — a
faulted-and-recovered campaign must produce a merged metrics dump
byte-identical to an unfaulted run, so supervision counters never mix
into the campaign's own registries.

The report rides home on ``CampaignResult.failures`` (as
:meth:`FailureReport.to_dict`) and lands in the run manifest's
``failures`` block, which :func:`repro.obs.manifest.deterministic_view`
strips alongside ``wallclock``: how often the host lost a worker is a
fact about the host, not about the spec.

Observe-only, like every ``repro.obs`` type: prober code may *write*
to a report (``record_*``) but must never read it back (``to_dict``,
``counts``, ``faults``) to steer execution.  The supervisor's retry
decisions come from its own local bookkeeping, and the recovery
byte-identity tests (``tests/prober/test_supervise.py::TestRetryRecovery``
/ ``TestExhaustion``) hold a retried or degraded run to the clean run's
bytes and attempt history.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .metrics import MetricsRegistry

#: Format identifier for the ``failures`` block, bumped on schema change.
FAILURES_FORMAT = "repro-failures/1"

#: Fault causes, as recorded per attempt and counted per cause.
CAUSE_CRASH = "crash"
CAUSE_TIMEOUT = "timeout"
CAUSE_WORKER_DIED = "worker-died"
CAUSE_CORRUPT = "corrupt-result"

_CAUSE_COUNTERS = {
    CAUSE_CRASH: "shard.crashes",
    CAUSE_TIMEOUT: "shard.timeouts",
    CAUSE_WORKER_DIED: "shard.worker_deaths",
    CAUSE_CORRUPT: "shard.corrupt_results",
}

#: Every counter a report carries, pre-registered so a clean run dumps
#: explicit zeros (an absent counter would be ambiguous in a manifest).
COUNTER_NAMES = (
    "shard.crashes",
    "shard.corrupt_results",
    "shard.degraded",
    "shard.retries",
    "shard.timeouts",
    "shard.worker_deaths",
)

#: Tracebacks are clipped to their tail: the raising frame is at the
#: bottom, and manifests should stay human-sized.
MAX_DETAIL_CHARS = 4000


class FailureReport:
    """Per-shard attempt history plus cause counters for one campaign."""

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        for name in COUNTER_NAMES:
            self._registry.counter(name)
        self._attempts: List[Dict[str, Any]] = []
        self._degraded: List[int] = []

    # -- write side (the supervisor) ------------------------------------

    def record_fault(
        self, shard: int, attempt: int, cause: str, detail: str = ""
    ) -> None:
        """One failed attempt: ``attempt`` is 1-based, ``cause`` is one of
        the ``CAUSE_*`` constants, ``detail`` a traceback or diagnostic."""
        if len(detail) > MAX_DETAIL_CHARS:
            detail = "...[truncated]...\n" + detail[-MAX_DETAIL_CHARS:]
        self._attempts.append(
            {"shard": shard, "attempt": attempt, "cause": cause, "detail": detail}
        )
        counter = _CAUSE_COUNTERS.get(cause)
        if counter is not None:
            self._registry.counter(counter).inc()

    def record_retry(self, shard: int) -> None:
        """The supervisor decided to re-dispatch ``shard``."""
        self._registry.counter("shard.retries").inc()

    def record_degraded(self, shard: int) -> None:
        """``shard`` exhausted its retries and ran serially in-parent."""
        self._degraded.append(shard)
        self._registry.counter("shard.degraded").inc()

    # -- read side (reporting only) -------------------------------------

    def counts(self) -> Dict[str, int]:
        """Counter values by name (all counters, zeros included)."""
        return {
            name: int(entry["value"])
            for name, entry in self._registry.to_dict().items()
        }

    def faults(self) -> List[Dict[str, Any]]:
        """Attempt records sorted by (shard, attempt)."""
        return sorted(
            (dict(entry) for entry in self._attempts),
            key=lambda entry: (entry["shard"], entry["attempt"]),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The manifest ``failures`` block: canonical, JSON-ready."""
        return {
            "format": FAILURES_FORMAT,
            "metrics": self._registry.to_dict(),
            "attempts": self.faults(),
            "degraded": sorted(self._degraded),
        }
