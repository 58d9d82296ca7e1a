"""Supervised shard execution: deadlines, dead-worker detection,
deterministic retry, graceful degradation.

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

Because of that purity, running a shard in-process, in a pool, retried,
or degraded is the *same* operation, and there is one runner: a
:class:`Supervisor` holds the per-shard state and makes the three
decisions — :meth:`~Supervisor.accept` (classify an attempt's outcome),
:meth:`~Supervisor.fault` (retry or exhaust) and
:meth:`~Supervisor.finish` (degrade or raise) — and its one loop drives
an *executor* that only knows how to start an attempt and report what
came of it: inline in this process (``processes == 1``), or on a worker
pool.

What the supervisor defends against, and how:

- **Worker crash** — an attempt catches everything and comes back as an
  ``("error", traceback)`` outcome; the supervisor counts it as a
  ``crash`` fault and retries.
- **Silent worker death** (SIGKILL, OOM killer) — every attempt
  announces ``(shard, attempt, pid)`` on a start queue the moment a
  worker picks it up; the supervisor polls worker liveness and treats a
  vanished pid as a ``worker-died`` fault instead of hanging forever on
  a result that will never arrive.  The pool replaces the dead process
  on its own; the retry is dispatched like any other task.
- **Hang / runaway shard** — with ``shard_timeout_s`` set, an attempt
  that outlives its deadline (measured from its start announcement on
  the host clock, via the :mod:`repro.prober.deadline` boundary) has
  its worker SIGKILLed and is counted as a ``timeout`` fault.
- **Corrupt result** — a result that fails to cross the pool pipe
  (pickling error) surfaces through the pool's error callback, and a
  value that is not a ``CampaignResult`` is never merged; both are
  counted as a ``corrupt-result`` fault, and the retry re-runs the shard
  rather than trusting broken bytes.

Retries are bounded (``max_retries``) with deterministic seeded backoff
— the delay is a pure function of ``(seed, shard, attempt)``, so two
runs facing the same faults pace their retries identically.  A shard
that exhausts its attempts either fails the campaign with a structured
:class:`ShardFailure` carrying *every* exhausted shard's history
(``degrade="fail"``), or falls back to running serially in the parent
process (``degrade="serial"``) — the slowest but most isolated path,
and byte-identical by the same purity argument.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.failures import (
    CAUSE_CORRUPT,
    CAUSE_CRASH,
    CAUSE_TIMEOUT,
    CAUSE_WORKER_DIED,
    FailureReport,
)
from ..obs.profiler import WallProfiler, pickled_bytes
from . import deadline
from .campaign import CampaignResult

# multiprocessing, queue and signal are imported by the pool path that
# uses them (run_pool, _make_pool, _PoolExecutor, _kill): an inline run
# and every command but `probe --workers N` never fork.
if TYPE_CHECKING:  # only for annotations: the imports stay lazy at runtime
    import multiprocessing.pool
    import queue

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


DEGRADE_FAIL = "fail"
DEGRADE_SERIAL = "serial"


@dataclass(frozen=True)
class SuperviseConfig:
    """How hard :func:`run_parallel` fights to finish a campaign.

    The default is the strictest setting: no timeout, no retries, fail
    on the first permanently-lost shard — byte-for-byte the semantics
    an unsupervised pool would have, minus the hangs.
    """

    #: Per-attempt wall-clock deadline, measured from the moment a
    #: worker announces the attempt.  ``None`` disables deadlines.
    #: Ignored by the inline executor (``processes=1``), where there is
    #: no worker to preempt.
    shard_timeout_s: Optional[float] = None
    #: Extra attempts after the first, per shard.
    max_retries: int = 0
    #: Base of the deterministic exponential backoff between attempts;
    #: attempt ``n``'s retry waits ``base * 2**(n-1) * (1 + jitter)``
    #: where jitter in ``[0, 1)`` is a pure function of
    #: ``(seed, shard, n)``.  Zero disables backoff.
    backoff_base_s: float = 0.05
    #: What to do with a shard that exhausts its attempts: ``"fail"``
    #: raises one :class:`ShardFailure` naming every exhausted shard;
    #: ``"serial"`` re-runs each exhausted shard in the parent process
    #: after the pool shuts down.
    degrade: str = DEGRADE_FAIL
    #: Supervision loop tick: upper bound on how long deadline and
    #: liveness checks can lag behind events.
    poll_interval_s: float = 0.02

    def attempts(self) -> int:
        return 1 + self.max_retries


DEFAULT_SUPERVISE = SuperviseConfig()


def validate_supervise(config: SuperviseConfig) -> None:
    """Raise ``ValueError`` before any worker forks, like
    :func:`repro.prober.parallel.validate_spec`."""
    if config.shard_timeout_s is not None and config.shard_timeout_s <= 0:
        raise ValueError(
            "shard_timeout_s must be positive or None: %r"
            % config.shard_timeout_s
        )
    if config.max_retries < 0:
        raise ValueError("max_retries must be >= 0: %r" % config.max_retries)
    if config.backoff_base_s < 0:
        raise ValueError(
            "backoff_base_s must be >= 0: %r" % config.backoff_base_s
        )
    if config.degrade not in (DEGRADE_FAIL, DEGRADE_SERIAL):
        raise ValueError(
            "degrade must be %r or %r: %r"
            % (DEGRADE_FAIL, DEGRADE_SERIAL, config.degrade)
        )
    if config.poll_interval_s <= 0:
        raise ValueError(
            "poll_interval_s must be positive: %r" % config.poll_interval_s
        )


# -- deterministic backoff --------------------------------------------------

_MASK64 = (1 << 64) - 1


def _mix64(*values: int) -> int:
    """splitmix64-style avalanche over the inputs: a pure integer hash
    (the builtin ``hash`` is PYTHONHASHSEED-dependent and DET001-banned)."""
    acc = 0
    for value in values:
        acc = (acc + (value & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        acc ^= acc >> 30
        acc = (acc * 0xBF58476D1CE4E5B9) & _MASK64
        acc ^= acc >> 27
        acc = (acc * 0x94D049BB133111EB) & _MASK64
        acc ^= acc >> 31
    return acc


def backoff_delay_s(
    config: SuperviseConfig, seed: int, shard: int, attempt: int
) -> float:
    """Seconds to wait before re-dispatching ``shard`` after failed
    attempt ``attempt``: exponential in the attempt, jittered by a pure
    function of ``(seed, shard, attempt)`` — deterministic across runs."""
    if config.backoff_base_s <= 0:
        return 0.0
    jitter = _mix64(seed, shard, attempt) / float(1 << 64)
    return config.backoff_base_s * (2.0 ** (attempt - 1)) * (1.0 + jitter)


# -- the job, and one attempt at one shard of it ----------------------------


@dataclass(frozen=True)
class ShardJob:
    """What to run, as one picklable value (it rides in every worker
    payload).

    ``run(spec, shard, shards, profiler=None)`` is the shard function.
    It must be defined at module level — it crosses the pool pipe by
    reference — and be pure in its first three arguments, which is what
    makes a retry invisible.  ``spec`` is opaque to the supervisor.
    ``plan`` is FaultSan's deterministic fault plan, if any.
    """

    run: Callable[..., CampaignResult]
    spec: Any
    shards: int
    plan: Optional["FaultPlan"] = None


#: What came of one attempt, before :meth:`Supervisor.accept` classifies
#: it: ``("ok", value)`` or ``("error", traceback text)`` out of
#: :func:`_attempt`; the pool executor adds ``("pipe", detail)``,
#: ``("deadline", detail)`` and ``("vanished", detail)``.
Outcome = Tuple[str, Any]

#: ``(shard, attempt, outcome)``: how executors report to the loop.
Event = Tuple[int, int, Outcome]


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
    :class:`ShardFailure`, not a pool hang."""
    try:
        _inject(job.plan, shard, attempt, "worker.start")
        value: Any = job.run(job.spec, shard, job.shards, profiler=profiler)
        return ("ok", _inject(job.plan, shard, attempt, "worker.result", value))
    except BaseException:
        return ("error", traceback.format_exc())


# -- worker side ------------------------------------------------------------

#: The start-report queue inherited by pool workers (set by
#: :func:`_init_worker` via the pool initializer): workers announce
#: ``(shard, attempt, pid)`` the instant they pick up a task, giving the
#: parent the pid to watch (liveness) and the deadline's start time.
_START_QUEUE: Optional[Any] = None


def _init_worker(start_queue: Any) -> None:
    global _START_QUEUE
    _START_QUEUE = start_queue


#: ``(job, shard, attempt)``.
WorkerPayload = Tuple[ShardJob, int, int]


def _supervised_worker(payload: WorkerPayload) -> Outcome:  # repro-lint: program-root
    """Pool entry point: announce the attempt, then run it."""
    job, shard, attempt = payload
    if _START_QUEUE is not None:
        _START_QUEUE.put((shard, attempt, os.getpid()))
    return _attempt(job, shard, attempt)


def _resolve_start_method(start_method: Optional[str]) -> str:
    """The pool start method actually used: fork when available (workers
    inherit the parent's built world), the platform default otherwise."""
    if start_method is not None:
        return start_method
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _make_pool(
    processes: int,
    start_method: Optional[str],
    initializer: Optional[Any] = None,
    initargs: Tuple[Any, ...] = (),
) -> multiprocessing.pool.Pool:
    """Build the worker pool (separate hook so tests can assert that
    validation failures never reach it).  ``initializer``/``initargs``
    hand workers the start-report queue."""
    import multiprocessing

    method = _resolve_start_method(start_method)
    return multiprocessing.get_context(method).Pool(
        processes, initializer=initializer, initargs=initargs
    )


# -- the supervisor ---------------------------------------------------------


@dataclass
class _ShardState:
    """Everything the supervisor knows about one shard."""

    shard: int
    attempt: int = 0  # attempts dispatched so far (1-based once running)
    dispatched: bool = False  # an attempt is in flight
    pid: Optional[int] = None  # worker running the attempt, once announced
    started_s: Optional[float] = None  # host time of the announcement
    ready_at_s: float = 0.0  # backoff gate for the next dispatch
    faults: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[CampaignResult] = None
    exhausted: bool = False


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
    """One campaign's supervision: the per-shard state, the loop, and
    the decisions both executors defer to.

    ``seed`` keys the deterministic backoff; ``report`` and ``prof`` are
    observe-only sinks (what the supervisor had to do, and where host
    time went).
    """

    job: ShardJob
    config: SuperviseConfig
    seed: int
    report: FailureReport
    prof: WallProfiler
    states: List[_ShardState] = field(init=False)
    #: Pickled result size per shard, for the profiler (pool runs only).
    bytes_by_shard: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.states = [_ShardState(shard=shard) for shard in range(self.job.shards)]

    def run_inline(self) -> List[Optional[CampaignResult]]:
        """All shards in this process: same retry/degrade semantics as a
        pool (deadlines excepted: in-process work can't be preempted),
        no IPC, no pickling."""
        self.supervise(_InlineExecutor(self))
        return self.finish()

    def run_pool(
        self, processes: int, start_method: Optional[str]
    ) -> List[Optional[CampaignResult]]:
        """All shards through a supervised worker pool.

        Pool shutdown is ``close()``/``join()`` whenever the supervision
        loop ran to completion — workers exit cleanly and run their
        exit finalizers — and ``terminate()`` only when the loop itself
        died (unexpected error, KeyboardInterrupt) and abandoned
        dispatched work.
        """
        import multiprocessing

        start_queue = multiprocessing.get_context(
            _resolve_start_method(start_method)
        ).SimpleQueue()
        with self.prof.phase("pool.start", processes=processes):
            pool = _make_pool(
                processes, start_method, initializer=_init_worker,
                initargs=(start_queue,),
            )
        completed = False
        try:
            with self.prof.phase("shards"):
                self.supervise(_PoolExecutor(self, pool, start_queue))
            completed = True
        finally:
            with self.prof.phase("pool.stop"):
                if completed:
                    pool.close()
                else:
                    pool.terminate()
                pool.join()
        return self.finish()

    def supervise(self, executor: Union["_InlineExecutor", "_PoolExecutor"]) -> None:
        """The supervision loop: dispatch, wait, absorb, sweep — until
        every shard has a result or is exhausted."""
        while True:
            pending = [
                state
                for state in self.states
                if state.result is None and not state.exhausted
            ]
            if not pending:
                return
            now_s = deadline.now()
            for state in pending:
                if not state.dispatched and now_s >= state.ready_at_s:
                    state.attempt += 1
                    state.dispatched = True
                    executor.submit(state)
            for shard, attempt, outcome in executor.wait(self._poll_slice()):
                state = self.states[shard]
                if not state.dispatched or attempt != state.attempt:
                    continue  # stale: a late event from an attempt already written off
                if self.accept(state, outcome):
                    executor.landed(shard, outcome)
            executor.sweep()

    def _poll_slice(self) -> float:
        """How long the event wait may block without missing a deadline,
        a backoff gate opening, or a liveness tick."""
        config = self.config
        now_s = deadline.now()
        slice_s = config.poll_interval_s
        for state in self.states:
            if state.result is not None or state.exhausted:
                continue
            if not state.dispatched:
                slice_s = min(slice_s, state.ready_at_s - now_s)
            elif config.shard_timeout_s is not None and state.started_s is not None:
                slice_s = min(
                    slice_s, state.started_s + config.shard_timeout_s - now_s
                )
        return max(0.001, slice_s)

    def accept(self, state: _ShardState, outcome: Outcome) -> bool:
        """Classify what came of ``state``'s in-flight attempt — the one
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
            state.dispatched = False
            state.pid = None
        return state.result is not None

    def fault(self, state: _ShardState, cause: str, detail: str) -> None:
        """Record one failed attempt and decide: retry (arming the
        backoff gate) or mark the shard exhausted."""
        attempt = state.attempt
        state.dispatched = False
        state.pid = None
        state.started_s = None
        state.faults.append({"attempt": attempt, "cause": cause, "detail": detail})
        self.report.record_fault(state.shard, attempt, cause, detail)
        if attempt >= self.config.attempts():
            state.exhausted = True
            return
        state.ready_at_s = deadline.now() + backoff_delay_s(
            self.config, self.seed, state.shard, attempt
        )
        self.report.record_retry(state.shard)
        with self.prof.phase(
            "shard.retry", shard=state.shard, attempt=attempt + 1, cause=cause
        ):
            pass  # marker span: retries show up in the wall profile

    def finish(self) -> List[Optional[CampaignResult]]:
        """Resolve exhausted shards — degrade serially in-parent or
        raise — and hand back the per-shard results."""
        exhausted = [state for state in self.states if state.exhausted]
        if exhausted and self.config.degrade != DEGRADE_SERIAL:
            raise _shard_failure(exhausted, self.config.attempts())
        job = self.job
        for state in exhausted:
            # The most isolated retry there is: no pool, no pipe, no fault
            # injection — and byte-identical, because a shard is a pure
            # function of (spec, shard, shards).  A shard that fails even
            # here has a real bug; let it raise.
            with self.prof.phase("shard.degrade", shard=state.shard):
                state.result = job.run(
                    job.spec, state.shard, job.shards, profiler=self.prof
                )
            state.exhausted = False
            self.report.record_degraded(state.shard)
        return [state.result for state in self.states]


# -- executors --------------------------------------------------------------


class _InlineExecutor:
    """Attempts run synchronously in this process and profile straight
    into the parent's profiler.  There is no worker to preempt or lose,
    and nothing crosses a pipe."""

    def __init__(self, sup: Supervisor) -> None:
        self.sup = sup
        self.done: List[Event] = []

    def submit(self, state: _ShardState) -> None:
        sup = self.sup
        outcome = _attempt(sup.job, state.shard, state.attempt, sup.prof)
        self.done.append((state.shard, state.attempt, outcome))

    def wait(self, timeout_s: float) -> List[Event]:
        if not self.done:  # nothing ran: every pending shard is behind its backoff gate
            deadline.sleep(timeout_s)
        done, self.done = self.done, []
        return done

    def landed(self, shard: int, outcome: Outcome) -> None:
        pass

    def sweep(self) -> None:
        pass


def _kill(pid: Optional[int]) -> None:
    if pid is None:
        return
    import signal

    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):  # already gone / not ours
        pass


def _live_pids(pool: multiprocessing.pool.Pool) -> Optional[Any]:
    """Pids of the pool's currently-alive workers, or ``None`` when the
    pool implementation doesn't expose them (liveness checks degrade to
    deadline-only supervision)."""
    workers = getattr(pool, "_pool", None)
    if workers is None:
        return None
    return {
        worker.pid
        for worker in workers
        if worker.pid is not None and worker.is_alive()
    }


class _PoolExecutor:
    """Attempts run on pool workers.  Results and pool errors arrive
    through ``apply_async`` callbacks on an event queue (so a vanished
    worker can't hang the parent the way a bare ``imap_unordered``
    iterator would); :meth:`sweep` enforces deadlines and worker
    liveness between waits."""

    def __init__(
        self, sup: Supervisor, pool: multiprocessing.pool.Pool, start_queue: Any
    ) -> None:
        import queue

        self.sup = sup
        self.pool = pool
        self.start_queue = start_queue
        self.events: "queue.Queue[Event]" = queue.Queue()
        self.handles: Dict[int, Any] = {}  # shard -> in-flight AsyncResult

    def submit(self, state: _ShardState) -> None:
        shard, attempt = state.shard, state.attempt
        events = self.events

        def on_result(outcome: Outcome) -> None:
            events.put((shard, attempt, outcome))

        def on_error(error: BaseException) -> None:
            # The pool failed to move the result across the pipe (e.g. a
            # MaybeEncodingError from an unpicklable result): the shard ran,
            # but its bytes are untrustworthy.
            detail = "%s: %s" % (type(error).__name__, error)
            events.put((shard, attempt, ("pipe", detail)))

        self.handles[shard] = self.pool.apply_async(
            _supervised_worker, ((self.sup.job, shard, attempt),),
            callback=on_result, error_callback=on_error,
        )

    def wait(self, timeout_s: float) -> List[Event]:
        import queue

        with self.sup.prof.phase("ipc.wait"):
            self._drain_start_reports()
            try:
                batch = [self.events.get(timeout=timeout_s)]
            except queue.Empty:
                return []
        try:
            while True:
                batch.append(self.events.get_nowait())
        except queue.Empty:
            return batch

    def landed(self, shard: int, outcome: Outcome) -> None:
        prof = self.sup.prof
        if prof.enabled:
            # Re-pickle the outcome through a counting sink: the same
            # bytes the pool just moved over the pipe, per shard.
            with prof.phase("pickle", shard=shard):
                count = pickled_bytes(outcome)
                prof.add_bytes(count)
                self.sup.bytes_by_shard[shard] = count

    def sweep(self) -> None:
        """Write off attempts past their deadline (SIGKILLing the
        worker) and attempts whose worker vanished without a result."""
        self._drain_start_reports()
        sup = self.sup
        timeout_s = sup.config.shard_timeout_s
        now_s = deadline.now()
        live = _live_pids(self.pool)
        for state in sup.states:
            if not state.dispatched or state.started_s is None:
                continue  # idle, or not yet picked up by a worker
            pid = state.pid
            if timeout_s is not None and now_s - state.started_s >= timeout_s:
                _kill(pid)  # the pool replaces the worker on its own
                self._discard(state)
                sup.accept(state, (
                    "deadline",
                    "shard %d attempt %d exceeded the %.3fs deadline; "
                    "worker pid %s killed"
                    % (state.shard, state.attempt, timeout_s, pid),
                ))
            elif live is not None and pid not in live:
                self._discard(state)
                sup.accept(state, (
                    "vanished",
                    "shard %d attempt %d: worker pid %s vanished without a "
                    "result (killed or out-of-memory)"
                    % (state.shard, state.attempt, pid),
                ))

    def _drain_start_reports(self) -> None:
        while not self.start_queue.empty():
            shard, attempt, pid = self.start_queue.get()
            state = self.sup.states[shard]
            if state.dispatched and attempt == state.attempt:
                state.pid = pid
                state.started_s = deadline.now()
            # else: a stale announcement from a killed/raced attempt

    def _discard(self, state: _ShardState) -> None:
        """Write off ``state``'s in-flight job in the pool's bookkeeping.

        A job whose worker died never completes, so its entry would sit in
        ``pool._cache`` forever — and ``close()``/``join()`` only finishes
        once the cache drains.  Dropping the entry ourselves keeps the
        clean-shutdown path reachable after a worker loss.  (The pool's
        result handler tolerates a late result for a dropped job: it looks
        the job up by id and ignores misses.)
        """
        job = getattr(self.handles.pop(state.shard, None), "_job", None)
        cache = getattr(self.pool, "_cache", None)
        if job is not None and isinstance(cache, dict):
            cache.pop(job, None)
