"""FaultSan chaos grid: fault-injected worker pools versus the
byte-identity contract.

Every test here injects a real failure — a crash, a self-SIGKILL, a
hang past the deadline, an unpicklable result — into a live pool and
asserts the two halves of the supervision contract:

* **recovery is invisible**: the merged records, curve, summary and
  metrics serialize byte-for-byte like an unfaulted ``run_single``;
* **the bookkeeping is exact**: the ``failures`` block (and the run
  manifest built from it) records precisely the injected faults — the
  right shard, attempt, and cause — and nothing else.
"""

import multiprocessing

import pytest

from repro.lint.faultsan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_HANG,
    KIND_SIGKILL,
    SITE_WORKER_RESULT,
    Fault,
    FaultPlan,
    seeded_plan,
)
from repro.netsim import InternetConfig, build_internet, decoupled_dynamics
from repro.obs import build_manifest, deterministic_view, manifest_dumps
from repro.prober import (
    CampaignSpec,
    ShardFailure,
    SuperviseConfig,
    run_parallel,
    run_single,
)
from repro.prober.output import dumps

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

_WORLDS = {}
_REFERENCES = {}


def make_spec(seed=11, n_targets=20, metrics=False):
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


def reference_dump(spec):
    """The unfaulted single-process bytes, computed once per spec."""
    key = (spec.internet.seed, len(spec.targets), spec.metrics)
    if key not in _REFERENCES:
        _REFERENCES[key] = dumps(run_single(spec))
    return _REFERENCES[key]


#: Hung workers sleep far past this; the deadline must cut them down.
TIMEOUT_S = 1.0

#: (id, fault for shard 1 attempt 1, expected recorded cause)
GRID = [
    ("crash", Fault(shard=1, kind=KIND_CRASH), "crash"),
    ("sigkill", Fault(shard=1, kind=KIND_SIGKILL), "worker-died"),
    ("hang", Fault(shard=1, kind=KIND_HANG, seconds=60.0), "timeout"),
    (
        "corrupt",
        Fault(shard=1, kind=KIND_CORRUPT, site=SITE_WORKER_RESULT),
        "corrupt-result",
    ),
]


class TestChaosGrid:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize(
        "name,fault,cause", GRID, ids=[row[0] for row in GRID]
    )
    def test_recovery_is_byte_identical_and_exactly_accounted(
        self, name, fault, cause, shards
    ):
        spec = make_spec()
        merged = run_parallel(
            spec,
            shards=shards,
            processes=2,
            start_method="fork",
            supervise=SuperviseConfig(shard_timeout_s=TIMEOUT_S, max_retries=2),
            fault_plan=FaultPlan((fault,)),
        )
        assert dumps(merged) == reference_dump(spec)
        block = merged.failures
        assert [
            (f["shard"], f["attempt"], f["cause"]) for f in block["attempts"]
        ] == [(1, 1, cause)]
        counts = {
            key: entry["value"] for key, entry in block["metrics"].items()
        }
        assert counts["shard.retries"] == 1
        assert sum(
            value for key, value in counts.items() if key != "shard.retries"
        ) == 1

    def test_merged_metrics_survive_a_faulted_run(self):
        """Byte-identity includes the telemetry merge: supervision
        counters must never leak into the campaign's own registries."""
        spec = make_spec(metrics=True)
        merged = run_parallel(
            spec,
            shards=4,
            processes=2,
            start_method="fork",
            supervise=SuperviseConfig(max_retries=1),
            fault_plan=FaultPlan.single(2, KIND_CRASH),
        )
        assert dumps(merged) == reference_dump(spec)
        assert not any(
            key.startswith("shard.") for key in (merged.metrics or {})
        )

    def test_multi_fault_plan_recovers_every_shard(self):
        spec = make_spec()
        plan = FaultPlan(
            (
                Fault(shard=0, kind=KIND_CRASH),
                Fault(shard=1, kind=KIND_CORRUPT, site=SITE_WORKER_RESULT),
                Fault(shard=3, kind=KIND_CRASH, attempt=2),
            )
        )
        merged = run_parallel(
            spec,
            shards=4,
            processes=2,
            start_method="fork",
            supervise=SuperviseConfig(max_retries=2),
            fault_plan=plan,
        )
        assert dumps(merged) == reference_dump(spec)
        assert [
            (f["shard"], f["attempt"], f["cause"])
            for f in merged.failures["attempts"]
        ] == [(0, 1, "crash"), (1, 1, "corrupt-result")]
        # shard 3's fault names attempt 2, which a fault-free attempt 1
        # never reaches: the plan only fires where the run actually goes.

    def test_seeded_plan_grid_recovers(self):
        """A generated plan (the fuzz shape) recovers like a hand-written
        one; crash/corrupt kinds only, so no sleeps and no kills."""
        spec = make_spec()
        plan = seeded_plan(
            seed=2018, shards=4, kinds=(KIND_CRASH, KIND_CORRUPT), faults=3
        )
        merged = run_parallel(
            spec,
            shards=4,
            processes=2,
            start_method="fork",
            supervise=SuperviseConfig(max_retries=3),
            fault_plan=plan,
        )
        assert dumps(merged) == reference_dump(spec)


class TestExhaustion:
    def test_exhausted_retries_raise_with_exact_history(self):
        spec = make_spec()
        with pytest.raises(ShardFailure) as excinfo:
            run_parallel(
                spec,
                shards=2,
                processes=2,
                start_method="fork",
                supervise=SuperviseConfig(max_retries=1),
                fault_plan=FaultPlan.exhaust(1, KIND_CRASH, attempts=2),
            )
        error = excinfo.value
        assert "shard 1 worker failed permanently" in str(error)
        assert "crash on attempt 2 of 2" in str(error)
        assert [
            (entry["shard"], entry["attempts"]) for entry in error.failures
        ] == [(1, 2)]


class TestManifestIntegration:
    def test_manifest_records_exactly_the_injected_faults(self):
        spec = make_spec()
        merged = run_parallel(
            spec,
            shards=2,
            processes=2,
            start_method="fork",
            supervise=SuperviseConfig(shard_timeout_s=TIMEOUT_S, max_retries=2),
            fault_plan=FaultPlan.single(1, KIND_SIGKILL),
        )
        manifest = build_manifest(
            merged, seed=spec.internet.seed, failures=merged.failures
        )
        block = manifest["failures"]
        assert block["format"] == "repro-failures/2"
        assert [
            (f["shard"], f["attempt"], f["cause"]) for f in block["attempts"]
        ] == [(1, 1, "worker-died")]
        # ... and the deterministic view strips it: how often this host
        # lost a worker is a fact about the host, not the spec.
        assert "failures" not in deterministic_view(manifest)

    def test_faulted_manifest_view_matches_clean_run(self):
        spec = make_spec()
        clean = run_parallel(spec, shards=2, processes=2, start_method="fork")
        faulted = run_parallel(
            spec,
            shards=2,
            processes=2,
            start_method="fork",
            supervise=SuperviseConfig(max_retries=1),
            fault_plan=FaultPlan.single(0, KIND_CRASH),
        )
        seed = spec.internet.seed
        clean_view = deterministic_view(
            build_manifest(clean, seed=seed, failures=clean.failures)
        )
        faulted_view = deterministic_view(
            build_manifest(faulted, seed=seed, failures=faulted.failures)
        )
        assert manifest_dumps(faulted_view) == manifest_dumps(clean_view)
