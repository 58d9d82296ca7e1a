"""Shard execution: one process per shard, every lost shard detected.

:func:`repro.prober.parallel.run_parallel` hands the execution of its
shards to this module as a :class:`ShardJob` — the shard function plus
an opaque spec.  The imports run one way only: this module knows
nothing about campaigns or worlds and never imports ``parallel``.

:func:`run_processes` starts each shard in a process of its own, at most
``processes`` at once, and reads the one outcome each sends home.  What
happened to that process is what happened to the shard, and anything
but a result raises one :class:`ShardFailure` on its first occurrence —
never a hang, never a merged-in bad value:

- **crash** — the shard function raised; the process catches it and
  sends the traceback home.
- **worker-died** — the process died without sending anything (SIGKILL,
  the OOM killer): its pipe reaches end-of-file with no outcome on it.
- **corrupt-result** — an outcome the process could not pickle, or a
  value that is not a ``CampaignResult``.

Every process is reaped before :func:`run_processes` returns or raises.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..obs.profiler import WallProfiler
from .campaign import CampaignResult

# multiprocessing is imported by the process path that uses it
# (run_processes, resolve_start_method): serial shards never fork.
if TYPE_CHECKING:  # only for annotations: the imports stay lazy at runtime
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

#: Why a shard failed: :attr:`ShardFailure.cause`.
CAUSE_CRASH = "crash"
CAUSE_WORKER_DIED = "worker-died"
CAUSE_CORRUPT = "corrupt-result"


class ShardFailure(RuntimeError):
    """A shard's process came back without a result.

    ``cause`` is one of the ``CAUSE_*`` names; ``detail`` is what the
    parent knows about it — for a crash, the shard's own traceback.
    """

    def __init__(self, shard: int, cause: str, detail: str) -> None:
        super().__init__("shard %d worker failed (%s):\n%s" % (shard, cause, detail))
        self.shard = shard
        self.cause = cause
        self.detail = detail


@dataclass(frozen=True)
class ShardJob:
    """What to run, as one picklable value (every shard process gets it).

    ``run(spec, shard, shards, profiler=None)`` is the shard function.
    It must be defined at module level — it crosses to a spawned process
    by reference.  ``spec`` is opaque to this module.
    """

    run: Callable[..., CampaignResult]
    spec: Any
    shards: int


#: What a shard process sends home: ``("ok", value)``, ``("error",
#: traceback text)``, or ``("pipe", detail)`` for an outcome that would
#: not pickle.
Outcome = Tuple[str, Any]


def _shard_process(job: ShardJob, shard: int, conn: "Connection") -> None:
    """The whole life of a shard process: run the shard, send its outcome
    home as one pickled message, exit."""
    outcome: Outcome
    try:
        outcome = ("ok", job.run(job.spec, shard, job.shards))
    except BaseException:
        outcome = ("error", traceback.format_exc())
    try:
        data = pickle.dumps(outcome)
    except Exception as error:
        data = pickle.dumps(("pipe", "%s: %s" % (type(error).__name__, error)))
    conn.send_bytes(data)


def resolve_start_method(start_method: Optional[str]) -> str:
    """The start method actually used: fork when available (shards
    inherit the parent's built world), the platform default otherwise."""
    if start_method is not None:
        return start_method
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _start(
    context: "BaseContext", job: ShardJob, shard: int
) -> Tuple["BaseProcess", "Connection"]:
    """Start one shard process; return it and its pipe's read end (a hook
    tests use to watch every process).  The parent's copy of the write
    end closes at once, so end-of-file means the process is gone."""
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(  # type: ignore[attr-defined]
        target=_shard_process, args=(job, shard, writer), daemon=True
    )
    process.start()
    writer.close()
    return process, reader


def _receive(
    shard: int, process: "BaseProcess", conn: "Connection", prof: WallProfiler,
    bytes_by_shard: Dict[int, int],
) -> CampaignResult:
    """The result ``shard``'s process sent, which is all it will ever
    send; :class:`ShardFailure` for anything else."""
    try:
        data = conn.recv_bytes()
    except EOFError:
        process.join()
        raise ShardFailure(
            shard,
            CAUSE_WORKER_DIED,
            "process %s exited with code %s and no result (killed or out-of-memory)"
            % (process.pid, process.exitcode),
        ) from None
    with prof.phase("pickle", shard=shard):
        prof.add_bytes(len(data))
        bytes_by_shard[shard] = len(data)
        try:
            status, value = pickle.loads(data)
        except Exception as error:
            status, value = "pipe", "%s: %s" % (type(error).__name__, error)
    if status == "error":
        raise ShardFailure(shard, CAUSE_CRASH, value)
    if status != "ok":
        raise ShardFailure(shard, CAUSE_CORRUPT, value)
    if not isinstance(value, CampaignResult):
        raise ShardFailure(
            shard, CAUSE_CORRUPT, "returned %r instead of a CampaignResult" % (value,)
        )
    return value


def run_processes(
    job: ShardJob,
    processes: int,
    start_method: Optional[str],
    prof: WallProfiler,
) -> Tuple[List[CampaignResult], Dict[int, int]]:
    """Every shard of ``job``, each in a process of its own, at most
    ``processes`` running at once.  Returns the results in shard order
    and the pickled size of each shard's outcome.  Every process is
    reaped before this returns: joined once it has reported, or killed
    first because another shard failed or the loop itself died."""
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context(resolve_start_method(start_method))
    waiting = list(range(job.shards))
    running: Dict["Connection", Tuple[int, "BaseProcess"]] = {}
    results: Dict[int, CampaignResult] = {}
    bytes_by_shard: Dict[int, int] = {}

    def launch() -> None:
        while waiting and len(running) < processes:
            shard = waiting.pop(0)
            process, conn = _start(context, job, shard)
            running[conn] = (shard, process)

    try:
        with prof.phase("pool.start", processes=processes):
            launch()
        with prof.phase("shards"):
            while running:
                with prof.phase("ipc.wait"):
                    ready = wait(list(running))
                for conn in [conn for conn in running if conn in ready]:
                    shard, process = running.pop(conn)
                    try:
                        results[shard] = _receive(shard, process, conn, prof, bytes_by_shard)
                    finally:
                        process.join()
                        conn.close()
                launch()
    finally:
        with prof.phase("pool.stop"):
            for _, process in running.values():
                process.kill()
            for conn, (_, process) in running.items():
                process.join()
                conn.close()
    return [results[shard] for shard in range(job.shards)], bytes_by_shard
