"""Supervised shard execution: config validation, deterministic backoff,
retry/exhaust/degrade semantics, and pool shutdown hygiene.

These are the fast always-on recovery tests: fault injection here uses
in-process ``crash``/``corrupt``/``mark-exit`` faults only, so nothing
sleeps past a deadline or SIGKILLs a worker.  The full chaos grid
(hang, SIGKILL, spawn pools) lives in ``test_faultsan.py`` behind
``pytest --faultsan``.

The load-bearing property throughout: a shard is a pure function of
``(spec, shard, shards)``, so a retried or degraded run must serialize
byte-for-byte like a run that never faulted.
"""

import ast
import multiprocessing
import os

import pytest

from repro.lint.core import load_source
from repro.lint.faultsan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_MARK_EXIT,
    SITE_WORKER_RESULT,
    Fault,
    FaultPlan,
)
from repro.netsim import InternetConfig, build_internet, decoupled_dynamics
from repro.obs import WallProfiler
from repro.obs.failures import CAUSE_CRASH
from repro.prober import (
    CampaignSpec,
    ShardFailure,
    SuperviseConfig,
    backoff_delay_s,
    run_parallel,
    run_single,
    validate_supervise,
)
from repro.prober import deadline
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


#: Retry fast in tests: no backoff sleeps between attempts.
RETRY = SuperviseConfig(max_retries=1, backoff_base_s=0.0)


def attempt_keys(merged):
    block = merged.failures
    return [(f["shard"], f["attempt"], f["cause"]) for f in block["attempts"]]


def fault_counts(merged):
    return {
        name: entry["value"]
        for name, entry in merged.failures["metrics"].items()
    }


#: The two executors behind ``run_parallel``: inline in this process, and
#: a worker pool.  One supervisor drives both, so for the same FaultPlan
#: they must agree on the merged bytes AND on the fault accounting.
EXECUTORS = {
    "inline": {"processes": 1},
    "pool": {"processes": 2, "start_method": "fork"},
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
    if other == "pool" and not HAS_FORK:
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
            SuperviseConfig(backoff_base_s=-0.01),
            SuperviseConfig(degrade="panic"),
            SuperviseConfig(poll_interval_s=0.0),
        ],
    )
    def test_bad_fields_raise(self, config):
        with pytest.raises(ValueError):
            validate_supervise(config)

    def test_defaults_validate(self):
        validate_supervise(SuperviseConfig())
        assert SuperviseConfig(max_retries=2).attempts() == 3

    def test_invalid_config_never_starts_a_pool(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("pool must not start for an invalid config")

        monkeypatch.setattr(supervise_module, "_make_pool", bomb)
        with pytest.raises(ValueError, match="max_retries"):
            run_parallel(
                make_spec(),
                shards=2,
                processes=2,
                supervise=SuperviseConfig(max_retries=-1),
            )


# -- deterministic backoff --------------------------------------------------


class TestBackoff:
    def test_pure_function_of_seed_shard_attempt(self):
        config = SuperviseConfig(backoff_base_s=0.05)
        first = backoff_delay_s(config, 2018, 3, 2)
        assert backoff_delay_s(config, 2018, 3, 2) == first
        assert backoff_delay_s(config, 2019, 3, 2) != first
        assert backoff_delay_s(config, 2018, 4, 2) != first
        assert backoff_delay_s(config, 2018, 3, 3) != first

    @pytest.mark.parametrize("attempt", [1, 2, 3, 4])
    def test_exponential_envelope_with_bounded_jitter(self, attempt):
        config = SuperviseConfig(backoff_base_s=0.05)
        delay = backoff_delay_s(config, 7, 1, attempt)
        floor = 0.05 * 2.0 ** (attempt - 1)
        assert floor <= delay < 2 * floor  # jitter in [0, 1)

    def test_zero_base_disables_backoff(self):
        config = SuperviseConfig(backoff_base_s=0.0)
        assert backoff_delay_s(config, 7, 1, 3) == 0.0


# -- the deadline boundary --------------------------------------------------


class TestDeadline:
    def test_none_never_expires(self):
        never = deadline.Deadline(None)
        assert not never.expired()
        assert never.remaining_s() is None

    def test_expiry_tracks_the_host_clock(self):
        soon = deadline.Deadline(0.001)
        deadline.sleep(0.005)
        assert soon.expired()
        assert soon.remaining_s() == 0.0
        later = deadline.Deadline(60.0)
        assert not later.expired()
        assert 0.0 < later.remaining_s() <= 60.0

    def test_sleep_ignores_non_positive_durations(self):
        before = deadline.now()
        deadline.sleep(-5.0)
        deadline.sleep(0.0)
        assert deadline.now() - before < 1.0


# -- retry recovery (serial and pool) ---------------------------------------


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
        assert counts["shard.degraded"] == 0
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
        self.check_crash_retry("pool")

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_pool_corrupt_pickle_retry_is_byte_identical(self):
        """An unpicklable result dies on the pool pipe; the supervisor
        sees the encoding error and re-runs the shard."""
        self.check_corrupt_retry("pool")

    def test_each_shard_spends_its_own_retry_budget(self):
        """Shard 0 crashes once and shard 1 twice under ``max_retries=2``,
        and both come back: whether a shard is retried, and which attempt
        it is on, follow from that shard's own history — never from a
        campaign-wide tally read back from the report."""
        spec = make_spec()
        plan = {
            "shards": 2,
            "supervise": SuperviseConfig(max_retries=2, backoff_base_s=0.0),
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


# -- exhaustion and degradation ---------------------------------------------


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
        self.check_every_failed_shard_is_collected("pool", [0, 2])

    def test_degrade_serial_reruns_in_parent_byte_identically(self):
        spec = make_spec()
        merged = run_parallel(
            spec,
            shards=2,
            processes=1,
            supervise=SuperviseConfig(
                max_retries=1, backoff_base_s=0.0, degrade="serial"
            ),
            fault_plan=FaultPlan.exhaust(1, KIND_CRASH, attempts=2),
        )
        assert dumps(merged) == dumps(run_single(spec))
        # Attempts are numbered by the shard's own history.
        assert attempt_keys(merged) == [(1, 1, "crash"), (1, 2, "crash")]
        block = merged.failures
        assert block["degraded"] == [1]
        counts = {
            name: entry["value"] for name, entry in block["metrics"].items()
        }
        assert counts == {
            "shard.crashes": 2,
            "shard.corrupt_results": 0,
            "shard.degraded": 1,
            "shard.retries": 1,
            "shard.timeouts": 0,
            "shard.worker_deaths": 0,
        }


# -- the failures block on clean runs ---------------------------------------


class TestCleanRuns:
    def test_clean_parallel_run_reports_explicit_zeros(self):
        spec = make_spec()
        merged = run_parallel(spec, shards=2, processes=1)
        block = merged.failures
        assert block["attempts"] == []
        assert block["degraded"] == []
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
            supervise=SuperviseConfig(
                shard_timeout_s=30.0, max_retries=3, degrade="serial"
            ),
        )
        assert dumps(supervised) == dumps(plain)


# -- pool shutdown hygiene --------------------------------------------------


def spy_on_pool(monkeypatch, calls):
    """Wrap the next pool's shutdown methods to record the order."""
    real = supervise_module._make_pool

    def spying(processes, start_method, initializer=None, initargs=()):
        pool = real(
            processes, start_method, initializer=initializer, initargs=initargs
        )
        for name in ("close", "terminate", "join"):
            original = getattr(pool, name)

            def wrapped(_original=original, _name=name):
                calls.append(_name)
                return _original()

            setattr(pool, name, wrapped)
        return pool

    monkeypatch.setattr(supervise_module, "_make_pool", spying)


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestPoolShutdown:
    def test_success_path_closes_and_joins(self, monkeypatch):
        calls = []
        spy_on_pool(monkeypatch, calls)
        spec = make_spec()
        merged = run_parallel(spec, shards=2, processes=2, start_method="fork")
        assert dumps(merged) == dumps(run_single(spec))
        assert calls == ["close", "join"]

    def test_supervisor_crash_terminates(self, monkeypatch):
        calls = []
        spy_on_pool(monkeypatch, calls)

        def broken(*args, **kwargs):
            raise RuntimeError("supervision loop died")

        monkeypatch.setattr(supervise_module.Supervisor, "supervise", broken)
        with pytest.raises(RuntimeError, match="supervision loop died"):
            run_parallel(
                make_spec(), shards=2, processes=2, start_method="fork"
            )
        assert calls == ["terminate", "join"]

    def test_workers_run_exit_finalizers_on_the_success_path(
        self, monkeypatch, tmp_path
    ):
        """The regression satellite: ``terminate()`` kills workers before
        their exit finalizers run, so worker-side cleanup only survives
        a ``close()``/``join()`` shutdown.  A ``mark-exit`` fault
        registers a marker-writing finalizer in one worker; the marker
        must exist once ``run_parallel`` returns."""
        calls = []
        spy_on_pool(monkeypatch, calls)
        spec = make_spec()
        plan = FaultPlan.single(0, KIND_MARK_EXIT, path=str(tmp_path))
        merged = run_parallel(
            spec, shards=2, processes=2, start_method="fork", fault_plan=plan
        )
        assert dumps(merged) == dumps(run_single(spec))
        assert calls == ["close", "join"]
        markers = list(tmp_path.glob("worker-*.exited"))
        assert markers, "worker exit cleanup never ran"
        assert markers[0].read_text() == "clean exit\n"


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
