"""Supervised shard execution: one process per attempt, deadlines,
immediate retry.

:func:`repro.prober.parallel.run_parallel` hands the actual execution
of its shards to this module as a :class:`ShardJob` — the shard
function plus an opaque spec.  The imports run one way only: this
module knows nothing about campaigns or worlds and never imports
``parallel``.  The contract it relies on — and the reason supervision
can exist at all without threatening the bit-identity guarantees — is
that **a shard is a pure function of** ``(spec, shard, shards)``: the
shard function rebuilds (or rewinds) the world from the spec and replays
the permutation walk on the virtual clock, so running a shard a second
time produces byte-identical records, metrics, and summary counters.
Retrying a lost shard is therefore *invisible* in the merged result;
only the :class:`~repro.obs.failures.FailureReport` (and the host's wall
clock) can tell a faulted run from a clean one.  FaultSan
(:mod:`repro.lint.faultsan`) proves this differentially.

Because of that purity, running a shard in this process, in a fresh
process, or again is the *same* operation.  A :class:`Supervisor` holds
the per-shard state and makes the two decisions —
:meth:`~Supervisor.accept` (classify an attempt's outcome) and
:meth:`~Supervisor.fault` (retry or exhaust).  With ``processes == 1``
every attempt runs in this process; otherwise every attempt is one
process of its own, at most ``processes`` at once, and what happened to
that process is what happened to the attempt:

- **Worker crash** — an attempt catches everything and comes back as an
  ``("error", traceback)`` outcome; the supervisor counts it as a
  ``crash`` fault and retries.
- **Silent worker death** (SIGKILL, OOM killer) — the attempt's pipe
  reaches end-of-file with no outcome on it: a ``worker-died`` fault.
- **Hang / runaway shard** — with ``shard_timeout_s`` set, an attempt
  process still silent that long after it started (host clock, read
  through :func:`repro.obs.wallclock.now`) is killed and counted as a
  ``timeout`` fault.
- **Corrupt result** — an outcome the attempt process cannot pickle
  comes home as ``("pipe", detail)``, and a value that is not a
  ``CampaignResult`` is never merged; both are counted as a
  ``corrupt-result`` fault, and the retry re-runs the shard rather than
  trusting broken bytes.

A retry is an immediate re-run in a new process — a stateless shard has
nothing to wait out — bounded by ``max_retries`` per shard.  A shard
that exhausts its attempts fails the campaign with one structured
:class:`ShardFailure` carrying *every* exhausted shard's history.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.failures import (
    CAUSE_CORRUPT,
    CAUSE_CRASH,
    CAUSE_TIMEOUT,
    CAUSE_WORKER_DIED,
    FailureReport,
)
from ..obs.profiler import WallProfiler
from ..obs.wallclock import now
from .campaign import CampaignResult

# multiprocessing is imported by the process path that uses it
# (run_processes, _resolve_start_method): an inline run and every
# command but `probe --workers N` never fork.
if TYPE_CHECKING:  # only for annotations: the imports stay lazy at runtime
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from ..lint.faultsan import FaultPlan


class ShardFailure(RuntimeError):
    """One or more shards failed permanently.

    The message names every exhausted shard with its attempt count,
    last cause, and last traceback; ``failures`` carries the same
    history structured: a tuple of ``{"shard", "attempts", "faults"}``
    dicts, where each fault is ``{"attempt", "cause", "detail"}``.
    """

    def __init__(
        self, message: str, failures: Sequence[Dict[str, Any]] = ()
    ) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


@dataclass(frozen=True)
class SuperviseConfig:
    """How hard :func:`run_parallel` fights to finish a campaign.

    The default is the strictest setting: no timeout, no retries, fail
    on the first permanently-lost shard — but a lost shard is always a
    detected event, never a hang.
    """

    #: Per-attempt wall-clock deadline, measured from the moment the
    #: attempt's process starts: positive and finite, or ``None``, which
    #: disables deadlines.  Ignored
    #: in-process (``processes=1``), where there is no process to kill.
    shard_timeout_s: Optional[float] = None
    #: Extra attempts after the first, per shard.
    max_retries: int = 0

    def attempts(self) -> int:
        return 1 + self.max_retries


DEFAULT_SUPERVISE = SuperviseConfig()

#: The longest single wait for an attempt to report.  A far deadline is
#: waited out in slices: the wait takes its timeout as a machine-sized
#: count of milliseconds, and the loop re-reads deadlines every turn.
_WAIT_SLICE_S = 60.0


def validate_supervise(config: SuperviseConfig) -> None:
    """Raise ``ValueError`` before any process starts, like
    :func:`repro.prober.parallel.validate_spec`."""
    if config.shard_timeout_s is not None and config.shard_timeout_s <= 0:
        raise ValueError(
            "shard_timeout_s must be positive or None: %r"
            % config.shard_timeout_s
        )
    if config.shard_timeout_s is not None and not isfinite(config.shard_timeout_s):
        raise ValueError("shard_timeout_s must be finite: %r" % config.shard_timeout_s)
    if config.max_retries < 0:
        raise ValueError("max_retries must be >= 0: %r" % config.max_retries)


# -- the job, and one attempt at one shard of it ----------------------------


@dataclass(frozen=True)
class ShardJob:
    """What to run, as one picklable value (every attempt process gets
    it).

    ``run(spec, shard, shards, profiler=None)`` is the shard function.
    It must be defined at module level — it crosses to a spawned process
    by reference — and be pure in its first three arguments, which is
    what makes a retry invisible.  ``spec`` is opaque to the supervisor.
    ``plan`` is FaultSan's deterministic fault plan, if any.
    """

    run: Callable[..., CampaignResult]
    spec: Any
    shards: int
    plan: Optional["FaultPlan"] = None


#: What came of one attempt, before :meth:`Supervisor.accept` classifies
#: it: ``("ok", value)`` or ``("error", traceback text)`` out of
#: :func:`_attempt`, ``("pipe", detail)`` out of :func:`_attempt_process`,
#: and ``("deadline", detail)`` or ``("vanished", detail)`` from the
#: supervisor watching the process.
Outcome = Tuple[str, Any]


def _inject(
    plan: Optional["FaultPlan"], shard: int, attempt: int, site: str, value: Any = None
) -> Any:
    """FaultSan hook: a no-op returning ``value`` unless a fault plan
    names this exact ``(shard, attempt, site)``.  The import is lazy so
    the prober package only touches the lint package under injection."""
    if plan is None:
        return value
    from ..lint.faultsan import inject

    return inject(plan, shard, attempt, site, value)


def _attempt(
    job: ShardJob, shard: int, attempt: int, profiler: Optional[WallProfiler] = None
) -> Outcome:
    """Run one attempt in this process and never raise: a failure is a
    value the supervisor turns into a retry or one clean
    :class:`ShardFailure`."""
    try:
        _inject(job.plan, shard, attempt, "worker.start")
        value: Any = job.run(job.spec, shard, job.shards, profiler=profiler)
        return ("ok", _inject(job.plan, shard, attempt, "worker.result", value))
    except BaseException:
        return ("error", traceback.format_exc())


def _attempt_process(
    job: ShardJob, shard: int, attempt: int, conn: "Connection"
) -> None:
    """The whole life of an attempt process: run the attempt, send its
    outcome home as one pickled message, exit.  An outcome that will not
    pickle goes home as ``("pipe", detail)`` instead."""
    outcome = _attempt(job, shard, attempt)
    try:
        data = pickle.dumps(outcome)
    except Exception as error:
        data = pickle.dumps(("pipe", "%s: %s" % (type(error).__name__, error)))
    conn.send_bytes(data)


def _resolve_start_method(start_method: Optional[str]) -> str:
    """The start method actually used: fork when available (attempts
    inherit the parent's built world), the platform default otherwise."""
    if start_method is not None:
        return start_method
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _start(
    context: "BaseContext", job: ShardJob, shard: int, attempt: int
) -> Tuple["BaseProcess", "Connection"]:
    """Start one attempt process; return it and its pipe's read end (a
    hook tests use to watch every process).  The parent's copy of the
    write end closes at once, so end-of-file means the process is gone."""
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(  # type: ignore[attr-defined]
        target=_attempt_process, args=(job, shard, attempt, writer), daemon=True
    )
    process.start()
    writer.close()
    return process, reader


# -- the supervisor ---------------------------------------------------------


@dataclass
class _ShardState:
    """Everything the supervisor knows about one shard."""

    shard: int
    attempt: int = 0  # attempts started so far (1-based once running)
    faults: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[CampaignResult] = None
    exhausted: bool = False


@dataclass
class _Running:
    """One attempt process, from its start until it is reaped."""

    state: _ShardState
    process: "BaseProcess"
    conn: "Connection"
    deadline_s: Optional[float]


def _shard_failure(failed: Sequence[_ShardState], attempts: int) -> ShardFailure:
    blocks = []
    entries = []
    for state in failed:
        last = state.faults[-1] if state.faults else {"cause": "unknown", "detail": ""}
        blocks.append(
            "shard %d worker failed permanently (%s on attempt %d of %d):\n%s"
            % (
                state.shard,
                last["cause"],
                len(state.faults),
                attempts,
                last["detail"] or last["cause"],
            )
        )
        entries.append(
            {
                "shard": state.shard,
                "attempts": len(state.faults),
                "faults": [dict(fault) for fault in state.faults],
            }
        )
    message = "%d shard(s) failed permanently:\n%s" % (
        len(failed),
        "\n".join(blocks),
    )
    return ShardFailure(message, failures=entries)


#: Failure cause by outcome status.  :meth:`Supervisor.accept` adds the
#: one row a status alone can't decide: an ``"ok"`` outcome that is not
#: a ``CampaignResult`` is as untrustworthy as one that broke on the pipe.
_CAUSES = {
    "error": CAUSE_CRASH,
    "pipe": CAUSE_CORRUPT,
    "deadline": CAUSE_TIMEOUT,
    "vanished": CAUSE_WORKER_DIED,
}


@dataclass
class Supervisor:
    """One campaign's supervision: the per-shard state, the two ways to
    run attempts, and the decisions both defer to.

    ``report`` and ``prof`` are observe-only sinks (what the supervisor
    had to do, and where host time went).
    """

    job: ShardJob
    config: SuperviseConfig
    report: FailureReport
    prof: WallProfiler
    states: List[_ShardState] = field(init=False)
    #: Pickled outcome size per shard, for the profiler (process runs only).
    bytes_by_shard: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.states = [_ShardState(shard=shard) for shard in range(self.job.shards)]

    def run_inline(self) -> List[CampaignResult]:
        """All shards in this process: same retry semantics as attempt
        processes (deadlines excepted: in-process work can't be
        preempted), no IPC, no pickling."""
        for state in self.states:
            while state.result is None and not state.exhausted:
                state.attempt += 1
                self.accept(state, _attempt(self.job, state.shard, state.attempt, self.prof))
        return self.finish()

    def run_processes(
        self, processes: int, start_method: Optional[str]
    ) -> List[CampaignResult]:
        """All shards, every attempt a process of its own, at most
        ``processes`` running at once.  Every process is reaped before this
        returns: joined once it has reported, or killed first — past its
        deadline, or because the loop itself died."""
        import multiprocessing
        from multiprocessing.connection import wait

        context = multiprocessing.get_context(_resolve_start_method(start_method))
        timeout_s = self.config.shard_timeout_s
        waiting = list(self.states)
        running: List[_Running] = []

        def launch() -> None:
            while waiting and len(running) < processes:
                state = waiting.pop(0)
                state.attempt += 1
                process, conn = _start(context, self.job, state.shard, state.attempt)
                deadline_s = None if timeout_s is None else now() + timeout_s
                running.append(_Running(state, process, conn, deadline_s))

        try:
            with self.prof.phase("pool.start", processes=processes):
                launch()
            with self.prof.phase("shards"):
                while running:
                    # Read before the wait: an attempt is late only if its deadline
                    # had passed and the wait still found it silent.
                    now_s = now()
                    deadlines = [run.deadline_s for run in running if run.deadline_s is not None]
                    with self.prof.phase("ipc.wait"):
                        ready = wait(
                            [run.conn for run in running]
                            + [run.process.sentinel for run in running],
                            None
                            if not deadlines
                            else min(_WAIT_SLICE_S, max(0.0, min(deadlines) - now_s)),
                        )
                    for run in list(running):
                        if run.conn in ready or run.process.sentinel in ready:
                            outcome = self._receive(run)
                        elif run.deadline_s is not None and now_s >= run.deadline_s:
                            run.process.kill()
                            outcome = (
                                "deadline",
                                "shard %d attempt %d exceeded the %.3fs deadline; "
                                "process %s killed"
                                % (run.state.shard, run.state.attempt, timeout_s, run.process.pid),
                            )
                        else:
                            continue
                        running.remove(run)
                        run.process.join()
                        run.conn.close()
                        if not self.accept(run.state, outcome) and not run.state.exhausted:
                            waiting.append(run.state)
                    launch()
        finally:
            with self.prof.phase("pool.stop"):
                for run in running:
                    run.process.kill()
                for run in running:
                    run.process.join()
                    run.conn.close()
        return self.finish()

    def _receive(self, run: _Running) -> Outcome:
        """Read what the attempt process sent, which is all it will ever
        send: one pickled outcome, or end-of-file if it died first."""
        shard = run.state.shard
        try:
            data = run.conn.recv_bytes()
        except EOFError:
            run.process.join()
            return (
                "vanished",
                "shard %d attempt %d: process %s exited with code %s and no result "
                "(killed or out-of-memory)"
                % (shard, run.state.attempt, run.process.pid, run.process.exitcode),
            )
        with self.prof.phase("pickle", shard=shard):
            self.prof.add_bytes(len(data))
            self.bytes_by_shard[shard] = len(data)
            try:
                outcome: Outcome = pickle.loads(data)
            except Exception as error:
                outcome = ("pipe", "%s: %s" % (type(error).__name__, error))
        return outcome

    def accept(self, state: _ShardState, outcome: Outcome) -> bool:
        """Classify what came of ``state``'s latest attempt — the one
        place an outcome becomes a result or a fault cause.  True when
        the shard now has its result."""
        status, value = outcome
        if status != "ok":
            self.fault(state, _CAUSES[status], value)
        elif not isinstance(value, CampaignResult):
            self.fault(
                state,
                CAUSE_CORRUPT,
                "shard %d attempt %d returned %r instead of a CampaignResult"
                % (state.shard, state.attempt, value),
            )
        else:
            state.result = value
        return state.result is not None

    def fault(self, state: _ShardState, cause: str, detail: str) -> None:
        """Record one failed attempt and decide: retry (the shard runs
        again) or mark the shard exhausted."""
        attempt = state.attempt
        state.faults.append({"attempt": attempt, "cause": cause, "detail": detail})
        self.report.record_fault(state.shard, attempt, cause, detail)
        if attempt >= self.config.attempts():
            state.exhausted = True
            return
        self.report.record_retry(state.shard)
        with self.prof.phase(
            "shard.retry", shard=state.shard, attempt=attempt + 1, cause=cause
        ):
            pass  # marker span: retries show up in the wall profile

    def finish(self) -> List[CampaignResult]:
        """Raise one :class:`ShardFailure` naming every exhausted shard,
        or hand back the per-shard results."""
        exhausted = [state for state in self.states if state.exhausted]
        if exhausted:
            raise _shard_failure(exhausted, self.config.attempts())
        return [state.result for state in self.states if state.result is not None]
