"""Supervised shard execution: config validation, retry/exhaust
semantics, and the life of every attempt process.

Fault injection here is mostly ``crash``/``corrupt``; one SIGKILL runs
without a deadline, one slow shard delivers while the parent stalls, and
one hang is cut short by a dying loop.  The chaos grid (crash, SIGKILL,
hang, corrupt under a deadline) is ``test_faultsan.py``.

The load-bearing property throughout: a shard is a pure function of
``(spec, shard, shards)``, so a retried run must serialize byte-for-byte
like a run that never faulted.
"""

import ast
import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro.lint.core import load_source
from repro.lint.faultsan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_HANG,
    KIND_SIGKILL,
    KIND_SLOW,
    SITE_WORKER_RESULT,
    Fault,
    FaultPlan,
)
from repro.netsim import InternetConfig, build_internet, decoupled_dynamics
from repro.obs import WallProfiler
from repro.prober import (
    CampaignSpec,
    ShardFailure,
    SuperviseConfig,
    run_parallel,
    run_single,
    validate_supervise,
)
from repro.prober import supervise as supervise_module
from repro.prober.output import dumps

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

_WORLDS = {}


def make_spec(n_targets=20, seed=11, metrics=False):
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
        metrics=metrics,
    )


RETRY = SuperviseConfig(max_retries=1)


def attempt_keys(merged):
    block = merged.failures
    return [(f["shard"], f["attempt"], f["cause"]) for f in block["attempts"]]


def fault_counts(merged):
    return {
        name: entry["value"]
        for name, entry in merged.failures["metrics"].items()
    }


#: The two ways ``run_parallel`` runs attempts: inline in this process,
#: and one process per attempt.  One supervisor decides for both, so for
#: the same FaultPlan they must agree on the merged bytes AND on the
#: fault accounting.
EXECUTORS = {
    "inline": {"processes": 1},
    "processes": {"processes": 2, "start_method": "fork"},
}


def run_on(executor, spec, **kwargs):
    """``run_parallel`` on the named executor.  A ``ShardFailure`` is
    returned rather than raised, so both endings compare the same way."""
    try:
        return run_parallel(spec, **EXECUTORS[executor], **kwargs)
    except ShardFailure as error:
        return error


def accounting(outcome):
    """What the supervisor recorded, in an executor-independent form."""
    if isinstance(outcome, ShardFailure):
        return [
            (entry["shard"], entry["attempts"],
             [fault["cause"] for fault in entry["faults"]])
            for entry in outcome.failures
        ]
    return attempt_keys(outcome), fault_counts(outcome)


def assert_other_executor_agrees(executor, outcome, spec, **kwargs):
    """Re-run the same plan on the other executor: identical accounting,
    and (when the run finishes) byte-identical merged dumps."""
    (other,) = set(EXECUTORS) - {executor}
    if other == "processes" and not HAS_FORK:
        return
    twin = run_on(other, spec, **kwargs)
    assert accounting(twin) == accounting(outcome)
    if not isinstance(outcome, ShardFailure):
        assert dumps(twin) == dumps(outcome)


# -- config validation ------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "config",
        [
            SuperviseConfig(shard_timeout_s=0.0),
            SuperviseConfig(shard_timeout_s=-1.0),
            SuperviseConfig(max_retries=-1),
        ],
    )
    def test_bad_fields_raise(self, config):
        with pytest.raises(ValueError):
            validate_supervise(config)

    def test_defaults_validate(self):
        validate_supervise(SuperviseConfig())
        assert SuperviseConfig(max_retries=2).attempts() == 3

    def test_config_is_a_deadline_and_a_retry_budget(self):
        assert [f.name for f in dataclasses.fields(SuperviseConfig)] == [
            "shard_timeout_s", "max_retries"
        ]

    def test_invalid_config_never_starts_a_pool(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("no attempt may start for an invalid config")

        monkeypatch.setattr(supervise_module, "_start", bomb)
        with pytest.raises(ValueError, match="max_retries"):
            run_parallel(
                make_spec(),
                shards=2,
                processes=2,
                supervise=SuperviseConfig(max_retries=-1),
            )


# -- retry recovery (inline and in processes) -------------------------------


class TestRetryRecovery:
    def check_crash_retry(self, executor):
        spec = make_spec()
        plan = {"shards": 2, "supervise": RETRY,
                "fault_plan": FaultPlan.single(1, KIND_CRASH)}
        merged = run_on(executor, spec, **plan)
        assert dumps(merged) == dumps(run_single(spec))
        assert attempt_keys(merged) == [(1, 1, "crash")]
        counts = fault_counts(merged)
        assert counts["shard.crashes"] == 1
        assert counts["shard.retries"] == 1
        assert "FaultInjected" in merged.failures["attempts"][0]["detail"]
        assert_other_executor_agrees(executor, merged, spec, **plan)

    def check_corrupt_retry(self, executor):
        spec = make_spec()
        plan = {"shards": 2, "supervise": RETRY,
                "fault_plan": FaultPlan.single(
                    1, KIND_CORRUPT, site=SITE_WORKER_RESULT)}
        merged = run_on(executor, spec, **plan)
        assert dumps(merged) == dumps(run_single(spec))
        assert attempt_keys(merged) == [(1, 1, "corrupt-result")]
        assert_other_executor_agrees(executor, merged, spec, **plan)

    def test_serial_crash_retry_is_byte_identical(self):
        self.check_crash_retry("inline")

    def test_serial_corrupt_result_retries(self):
        """A non-CampaignResult out of a shard is a corrupt-result fault,
        never a merged-in value."""
        self.check_corrupt_retry("inline")

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_pool_crash_retry_is_byte_identical(self):
        self.check_crash_retry("processes")

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_pool_corrupt_pickle_retry_is_byte_identical(self):
        """An unpicklable result cannot cross the pipe; the attempt
        process sends the pickling error instead and the supervisor
        re-runs the shard."""
        self.check_corrupt_retry("processes")

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_sigkill_without_a_deadline_is_a_worker_death(self):
        """No ``shard_timeout_s``: only the killed process's pipe, which
        reaches end-of-file with nothing on it, tells the supervisor the
        attempt is lost."""
        spec = make_spec()
        merged = run_on(
            "processes", spec, shards=2, supervise=RETRY,
            fault_plan=FaultPlan.single(1, KIND_SIGKILL),
        )
        assert dumps(merged) == dumps(run_single(spec))
        assert attempt_keys(merged) == [(1, 1, "worker-died")]

    def test_each_shard_spends_its_own_retry_budget(self):
        """Shard 0 crashes once and shard 1 twice under ``max_retries=2``,
        and both come back: whether a shard is retried, and which attempt
        it is on, follow from that shard's own history — never from a
        campaign-wide tally read back from the report."""
        spec = make_spec()
        plan = {
            "shards": 2,
            "supervise": SuperviseConfig(max_retries=2),
            "fault_plan": FaultPlan(
                tuple(
                    Fault(shard=shard, kind=KIND_CRASH, attempt=attempt)
                    for shard, attempt in ((0, 1), (1, 1), (1, 2))
                )
            ),
        }
        merged = run_on("inline", spec, **plan)
        assert dumps(merged) == dumps(run_single(spec))
        assert attempt_keys(merged) == [
            (0, 1, "crash"), (1, 1, "crash"), (1, 2, "crash")
        ]
        assert fault_counts(merged)["shard.retries"] == 3

    def test_retries_show_up_in_the_wall_profile(self):
        spec = make_spec()
        prof = WallProfiler()
        merged = run_parallel(
            spec,
            shards=2,
            processes=1,
            profiler=prof,
            supervise=RETRY,
            fault_plan=FaultPlan.single(1, KIND_CRASH),
        )
        assert dumps(merged) == dumps(run_single(spec))
        paths = {row["path"] for row in merged.wall_profile["phases"]}
        assert "parallel/shard.retry" in paths


# -- exhaustion -------------------------------------------------------------


class TestExhaustion:
    def test_exhausted_shard_raises_one_structured_failure(self):
        spec = make_spec()
        with pytest.raises(ShardFailure) as excinfo:
            run_parallel(
                spec,
                shards=2,
                processes=1,
                supervise=RETRY,
                fault_plan=FaultPlan.exhaust(1, KIND_CRASH, attempts=2),
            )
        error = excinfo.value
        message = str(error)
        assert "1 shard(s) failed permanently" in message
        assert "shard 1 worker failed permanently" in message
        assert "crash on attempt 2 of 2" in message
        assert len(error.failures) == 1
        entry = error.failures[0]
        assert entry["shard"] == 1
        assert entry["attempts"] == 2
        assert [f["cause"] for f in entry["faults"]] == ["crash", "crash"]

    def check_every_failed_shard_is_collected(self, executor, failing):
        spec = make_spec()
        plan = {"shards": 4, "fault_plan": FaultPlan(
            tuple(Fault(shard=shard, kind=KIND_CRASH) for shard in failing)
        )}
        error = run_on(executor, spec, **plan)
        assert isinstance(error, ShardFailure)
        assert [entry["shard"] for entry in error.failures] == failing
        assert "2 shard(s) failed permanently" in str(error)
        assert_other_executor_agrees(executor, error, spec, **plan)

    def test_every_failed_shard_is_collected_before_raising(self):
        """No first-failure masking: one ShardFailure names ALL the
        permanently-failed shards."""
        self.check_every_failed_shard_is_collected("inline", [1, 3])

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_pool_collects_every_failed_shard_too(self):
        self.check_every_failed_shard_is_collected("processes", [0, 2])


# -- the failures block on clean runs ---------------------------------------


class TestCleanRuns:
    def test_clean_parallel_run_reports_explicit_zeros(self):
        spec = make_spec()
        merged = run_parallel(spec, shards=2, processes=1)
        block = merged.failures
        assert block["attempts"] == []
        assert all(
            entry["value"] == 0 for entry in block["metrics"].values()
        )

    def test_run_single_carries_no_failures_block(self):
        assert run_single(make_spec()).failures is None

    def test_supervised_equals_unsupervised_without_faults(self):
        spec = make_spec()
        plain = run_parallel(spec, shards=2, processes=1)
        supervised = run_parallel(
            spec,
            shards=2,
            processes=1,
            supervise=SuperviseConfig(shard_timeout_s=30.0, max_retries=3),
        )
        assert dumps(supervised) == dumps(plain)


# -- attempt processes ------------------------------------------------------


def spy_on_attempts(monkeypatch, started, fail_at=None):
    """Record every process ``_start`` starts.  Call number ``fail_at``
    (0-based) raises instead, as if the supervision loop itself died."""
    real = supervise_module._start

    def spying(context, job, shard, attempt):
        if len(started) == fail_at:
            raise RuntimeError("supervision loop died")
        process, conn = real(context, job, shard, attempt)
        started.append(process)
        return process, conn

    monkeypatch.setattr(supervise_module, "_start", spying)


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestAttemptProcesses:
    def test_every_attempt_process_exits_with_code_0(self, monkeypatch):
        """On the success path every attempt returns from its target: a
        normal exit, which is what runs a process's exit finalizers, and
        nothing is left for anyone to reap."""
        started = []
        spy_on_attempts(monkeypatch, started)
        spec = make_spec()
        merged = run_parallel(spec, shards=4, processes=2, start_method="fork")
        assert dumps(merged) == dumps(run_single(spec))
        assert [process.exitcode for process in started] == [0, 0, 0, 0]
        assert multiprocessing.active_children() == []

    def test_a_stalled_parent_times_out_no_attempt_that_delivered(self, monkeypatch):
        """Shard 0 reports first and the parent stalls 0.6 s handling it
        (a loaded host, a long collection); shard 1 delivers at ~0.1 s,
        inside its 0.5 s deadline, while the parent is stalled.  The
        deadline has passed by the time the parent looks at shard 1, but
        the outcome was on time: no fault."""
        real = supervise_module.Supervisor._receive

        def stalling(sup, run):
            outcome = real(sup, run)
            if run.state.shard == 0:
                time.sleep(0.6)
            return outcome

        monkeypatch.setattr(supervise_module.Supervisor, "_receive", stalling)
        spec = make_spec()
        merged = run_parallel(
            spec, shards=2, processes=2, start_method="fork",
            supervise=SuperviseConfig(shard_timeout_s=0.5),
            fault_plan=FaultPlan.single(1, KIND_SLOW, seconds=0.1),
        )
        assert dumps(merged) == dumps(run_single(spec))
        assert attempt_keys(merged) == []

    def test_a_dying_loop_kills_and_reaps_every_running_attempt(self, monkeypatch):
        """Shard 0 hangs for a minute; the loop dies when it starts shard
        2.  Shard 0's process is killed and joined on the way out, not
        left to finish its sleep."""
        started = []
        spy_on_attempts(monkeypatch, started, fail_at=2)
        with pytest.raises(RuntimeError, match="supervision loop died"):
            run_parallel(
                make_spec(), shards=4, processes=2, start_method="fork",
                fault_plan=FaultPlan.single(0, KIND_HANG, seconds=60.0),
            )
        assert [process.exitcode for process in started] == [-signal.SIGKILL, 0]
        assert multiprocessing.active_children() == []


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
        assert origins("parallel.py")["Supervisor"] == ".supervise.Supervisor"

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
