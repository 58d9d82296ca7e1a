"""Shard processes: every lost shard is detected, every process reaped.

Faults are injected through ``ShardJob.run``: the shard functions below
run the real shard (``run_shard``) except where they are told to fail,
so production code carries no fault hook.  They live at module level
because a spawned process finds them by importing this module, and
every detection test runs under fork and under spawn.
"""

import ast
import multiprocessing
import os
import re
import signal
import time
from dataclasses import replace

import pytest

from repro.lint.core import load_source
from repro.netsim import InternetConfig, build_internet, decoupled_dynamics
from repro.obs import NULL_PROFILER, WallProfiler
from repro.prober import CampaignSpec, ShardFailure, run_parallel, run_shard, run_single
from repro.prober import supervise as supervise_module
from repro.prober.output import dumps
from repro.prober.supervise import ShardJob, run_processes

START_METHODS = [
    method for method in ("fork", "spawn") if method in multiprocessing.get_all_start_methods()
]

_WORLDS = {}


def make_spec(n_targets=20, seed=11):
    """A tiny decoupled world plus a campaign spec over its leaf hosts."""
    if seed not in _WORLDS:
        config = decoupled_dynamics(
            InternetConfig(
                seed=seed,
                n_edge=6,
                n_tier2=3,
                n_cpe_isps=1,
                cpe_customers_per_isp=12,
            )
        )
        built = build_internet(config)
        targets = tuple(
            subnet.prefix.base | 1 for subnet in built.truth.subnets.values()
        )
        _WORLDS[seed] = (config, targets)
    config, targets = _WORLDS[seed]
    return CampaignSpec(
        internet=config,
        vantage="US-EDU-1",
        targets=targets[:n_targets],
        pps=1100.0,
    )


# -- shard functions: shard 1 fails, every other shard runs for real --------

FAULTY = 1


def crashing(spec, shard, shards, profiler=None):
    if shard == FAULTY:
        raise RuntimeError("injected crash in shard %d" % shard)
    return run_shard(spec, shard, shards)


def killed(spec, shard, shards, profiler=None):
    if shard == FAULTY:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_shard(spec, shard, shards)


def unpicklable(spec, shard, shards, profiler=None):
    result = run_shard(spec, shard, shards)
    if shard == FAULTY:
        result = replace(result, wall_profile={"export": lambda: None})
    return result


def not_a_result(spec, shard, shards, profiler=None):
    if shard == FAULTY:
        return 42
    return run_shard(spec, shard, shards)


def hanging(spec, shard, shards, profiler=None):
    if shard == 0:
        time.sleep(60.0)
    return run_shard(spec, shard, shards)


def crash_at(spec, shard, shards, profiler=None):
    """``spec`` is ``(campaign spec, faulty shard)``: the job's spec is
    opaque to the runner, so the fault's position rides along in it."""
    campaign, faulty = spec
    if shard == faulty:
        raise RuntimeError("injected crash in shard %d" % shard)
    return run_shard(campaign, shard, shards)


def hang_or_crash(spec, shard, shards, profiler=None):
    """Shard 0 sleeps for a minute; shard 1 crashes at once."""
    if shard == 0:
        time.sleep(60.0)
    raise RuntimeError("injected crash in shard %d" % shard)


def slow(spec, shard, shards, profiler=None):
    """Every shard outlives the start of the shards after it."""
    time.sleep(0.3)
    return run_shard(spec, shard, shards)


def last_first(spec, shard, shards, profiler=None):
    """Later shards finish first: shard ``s`` waits 0.3 s for each shard
    after it before it runs."""
    time.sleep(0.3 * (shards - 1 - shard))
    return run_shard(spec, shard, shards)


def run_job(shard_function, start_method, shards=2, processes=2):
    job = ShardJob(shard_function, make_spec(), shards)
    return run_processes(job, processes, start_method, NULL_PROFILER)


def failure_of(shard_function, start_method):
    """The ShardFailure running ``shard_function``'s job raises; no
    process may outlive it."""
    with pytest.raises(ShardFailure) as excinfo:
        run_job(shard_function, start_method)
    assert multiprocessing.active_children() == []
    return excinfo.value


def spy_on_starts(monkeypatch, started, fail_at=None):
    """Record every process ``_start`` starts.  Call number ``fail_at``
    (0-based) raises instead, as if the loop itself died."""
    real = supervise_module._start

    def spying(context, job, shard):
        if len(started) == fail_at:
            raise RuntimeError("supervision loop died")
        process, conn = real(context, job, shard)
        started.append(process)
        return process, conn

    monkeypatch.setattr(supervise_module, "_start", spying)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestDetection:
    def test_a_crash_carries_the_shard_traceback(self, start_method):
        error = failure_of(crashing, start_method)
        assert (error.shard, error.cause) == (FAULTY, "crash")
        assert error.detail.startswith("Traceback")
        assert "RuntimeError: injected crash in shard 1" in error.detail
        assert str(error).startswith("shard 1 worker failed (crash):\nTraceback")

    def test_a_sigkill_is_a_worker_death(self, start_method):
        error = failure_of(killed, start_method)
        assert (error.shard, error.cause) == (FAULTY, "worker-died")
        assert "exited with code %d and no result" % -signal.SIGKILL in error.detail

    def test_an_unpicklable_outcome_is_a_corrupt_result(self, start_method):
        error = failure_of(unpicklable, start_method)
        assert (error.shard, error.cause) == (FAULTY, "corrupt-result")
        # The pickling error itself, raised in the shard process.
        assert re.match(r"\w+Error: Can't pickle", error.detail), error.detail

    def test_a_value_that_is_not_a_result_is_a_corrupt_result(self, start_method):
        error = failure_of(not_a_result, start_method)
        assert (error.shard, error.cause) == (FAULTY, "corrupt-result")
        assert error.detail == "returned 42 instead of a CampaignResult"

    def test_a_dying_loop_kills_and_reaps_every_process(self, start_method, monkeypatch):
        """Shard 0 hangs for a minute; the loop dies when it starts shard
        2.  Shard 0's process is killed and joined on the way out, not
        left to finish its sleep."""
        started = []
        spy_on_starts(monkeypatch, started, fail_at=2)
        with pytest.raises(RuntimeError, match="supervision loop died"):
            run_job(hanging, start_method, shards=4, processes=2)
        assert [process.exitcode for process in started] == [-signal.SIGKILL, 0]
        assert multiprocessing.active_children() == []

    def test_every_process_exits_with_code_0(self, start_method, monkeypatch):
        """On the success path every shard returns from its target: a
        normal exit, which is what runs a process's exit finalizers, and
        nothing is left for anyone to reap."""
        started = []
        spy_on_starts(monkeypatch, started)
        spec = make_spec()
        merged = run_parallel(spec, shards=4, processes=2, start_method=start_method)
        assert dumps(merged) == dumps(run_single(spec))
        assert [process.exitcode for process in started] == [0, 0, 0, 0]
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("start_method", START_METHODS)
class TestRunProcesses:
    """What :func:`run_processes` returns, and how many processes it has
    running at any time."""

    @pytest.mark.parametrize("faulty", [0, 1, 2])
    def test_the_failure_names_the_shard_that_failed(self, start_method, faulty):
        job = ShardJob(crash_at, (make_spec(), faulty), 3)
        with pytest.raises(ShardFailure) as excinfo:
            run_processes(job, 3, start_method, NULL_PROFILER)
        assert (excinfo.value.shard, excinfo.value.cause) == (faulty, "crash")
        assert "injected crash in shard %d" % faulty in excinfo.value.detail
        assert multiprocessing.active_children() == []

    def test_a_failure_kills_a_sibling_that_is_still_running(
        self, start_method, monkeypatch
    ):
        """Shard 1's crash is raised on its first occurrence: shard 0,
        a minute from done, is killed and reaped (exit -SIGKILL), not
        waited for (it would have exited 0)."""
        started = []
        spy_on_starts(monkeypatch, started)
        with pytest.raises(ShardFailure) as excinfo:
            run_job(hang_or_crash, start_method, shards=2, processes=2)
        assert (excinfo.value.shard, excinfo.value.cause) == (1, "crash")
        assert [process.exitcode for process in started] == [-signal.SIGKILL, 0]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("faulty", [0, 1])
    def test_one_process_at_a_time_starts_no_shard_after_a_failure(
        self, start_method, monkeypatch, faulty
    ):
        started = []
        spy_on_starts(monkeypatch, started)
        job = ShardJob(crash_at, (make_spec(), faulty), 3)
        with pytest.raises(ShardFailure) as excinfo:
            run_processes(job, 1, start_method, NULL_PROFILER)
        assert excinfo.value.shard == faulty
        assert len(started) == faulty + 1
        assert multiprocessing.active_children() == []

    def test_results_come_back_in_shard_order(self, start_method):
        """Shards that report last to first still come back as shard 0,
        1, 2: the merge reads each result's position as its shard id."""
        spec = make_spec()
        job = ShardJob(last_first, spec, 3)
        results, _ = run_processes(job, 3, start_method, NULL_PROFILER)
        assert [dumps(result) for result in results] == [
            dumps(run_shard(spec, shard, 3)) for shard in range(3)
        ]

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_never_more_than_processes_at_once(self, start_method, monkeypatch, processes):
        """Four slow shards under a cap of ``processes``: every start
        finds fewer than the cap running, and the cap is reached."""
        running_at_start = []
        real = supervise_module._start

        def counting(context, job, shard):
            running_at_start.append(len(multiprocessing.active_children()))
            return real(context, job, shard)

        monkeypatch.setattr(supervise_module, "_start", counting)
        results, _ = run_processes(
            ShardJob(slow, make_spec(), 4), processes, start_method, NULL_PROFILER
        )
        assert len(results) == 4
        assert len(running_at_start) == 4
        assert max(running_at_start) == processes - 1
        assert multiprocessing.active_children() == []

    def test_a_cap_above_the_shard_count_starts_one_process_per_shard(
        self, start_method, monkeypatch
    ):
        started = []
        spy_on_starts(monkeypatch, started)
        results, _ = run_processes(
            ShardJob(run_shard, make_spec(), 2), 8, start_method, NULL_PROFILER
        )
        assert len(results) == len(started) == 2
        assert [process.exitcode for process in started] == [0, 0]

    def test_every_shard_reports_the_bytes_its_outcome_crossed_the_pipe_as(
        self, start_method
    ):
        prof = WallProfiler()
        with prof.phase("parallel"):
            _, sizes = run_processes(ShardJob(run_shard, make_spec(), 3), 3, start_method, prof)
        assert sorted(sizes) == [0, 1, 2]
        assert all(size > 0 for size in sizes.values())
        rows = {row["path"]: row for row in prof.phase_rows()}
        assert rows["parallel/shards/pickle"]["bytes"] == sum(sizes.values())


# -- layering ---------------------------------------------------------------


class TestLayering:
    """``parallel`` hands ``supervise`` the shard function; nothing flows
    the other way, and nothing in the package imports either module from
    inside a function to dodge a cycle."""

    PROBER = os.path.dirname(supervise_module.__file__)

    def parse(self, name):
        with open(os.path.join(self.PROBER, name)) as source:
            return ast.parse(source.read())

    def test_supervise_never_imports_parallel(self):
        # The lint index's import origins see every import in the file:
        # module level, function-local, and under TYPE_CHECKING alike.
        def origins(name):
            return load_source(os.path.join(self.PROBER, name)).index.origins

        imported = origins("supervise.py").values()
        assert [o for o in imported if "parallel" in o.split(".")] == []
        assert origins("parallel.py")["run_processes"] == ".supervise.run_processes"

    def test_supervise_reads_no_private_attribute_it_did_not_define(self):
        """Supervision rests on public ``multiprocessing`` API only: no
        read of an underscore attribute (dunders aside) that this module
        does not define itself, and no ``getattr`` of an ``"_..."`` name."""
        tree = self.parse("supervise.py")
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        } | {
            node.target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }

        def private(name):
            return name.startswith("_") and not name.endswith("__")

        reads = [
            (node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and private(node.attr)
            and node.attr not in defined
        ]
        named = [
            (node.lineno, node.args[1].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr", "delattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value.startswith("_")
        ]
        assert reads + named == []

    def test_no_function_local_runner_imports(self):
        for name in sorted(os.listdir(self.PROBER)):
            if not name.endswith(".py"):
                continue
            for scope in ast.walk(self.parse(name)):
                if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                local = [
                    node.module
                    for node in ast.walk(scope)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                ]
                assert not {"parallel", "supervise"} & set(local), (name, scope.name)

    def test_response_path_has_no_function_local_imports(self):
        # records.py is the per-response path: an import statement inside
        # one of its functions would run once per response.
        local = [
            (scope.name, ast.dump(node))
            for scope in ast.walk(self.parse("records.py"))
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert local == []
