"""Tests for the parallel campaign runner (shard execution + merge).

The determinism contract under test: for a decoupled-dynamics world and
a pure permutation walk (no fill, no neighborhood skipping),

    run_parallel(spec, shards=N) == run_single(spec)

field by field, for any N.  The merge is a pure function of the shard
results, so most tests run the shards serially (``processes=1``) for
speed; one test drives a real worker pool end to end.
"""

import hashlib
import math
import multiprocessing
import pickle
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    Internet,
    InternetConfig,
    VantageConfig,
    build_internet,
    decoupled_dynamics,
)
from repro.netsim.engine import pps_interval
from repro.obs import WallProfiler
from repro.prober import (
    CampaignSpec,
    ShardFailure,
    Yarrp6Config,
    run_parallel,
    run_shard,
    run_single,
    validate_campaign,
    validate_spec,
)
from repro.prober.output import dumps
from repro.prober.permutation import ProbeSchedule
from repro.prober import parallel as parallel_module
from repro.prober import supervise as supervise_module


_WORLDS = {}


def small_world(seed):
    """A tiny decoupled world plus its leaf-host targets, cached per seed."""
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
    return _WORLDS[seed]


def record_key(record):
    return (
        record.target,
        record.ttl,
        record.hop,
        record.icmp_type,
        record.icmp_code,
        record.label,
        record.rtt_us,
        record.received_at,
        record.target_modified,
    )


def assert_identical(merged, reference):
    """Field-by-field CampaignResult equality (records projected to value
    tuples: ProbeRecord has __slots__ and no __eq__)."""
    assert merged.sent == reference.sent
    assert [record_key(r) for r in merged.records] == [
        record_key(r) for r in reference.records
    ]
    assert merged.interfaces == reference.interfaces
    assert merged.curve == reference.curve
    assert merged.summary == reference.summary
    assert merged.response_labels == reference.response_labels
    assert merged.duration_us == reference.duration_us
    assert merged.vantage == reference.vantage
    assert merged.prober == reference.prober
    assert merged.targets == reference.targets


class TestMergeEqualsSingleProcess:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_acceptance_n_1_2_4(self, shards):
        """The acceptance criterion: N in {1, 2, 4} bit-identical."""
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config, vantage="US-EDU-1", targets=targets[:30], pps=900.0
        )
        reference = run_single(spec)
        merged = run_parallel(spec, shards=shards, processes=1)
        assert_identical(merged, reference)

    def test_real_worker_pool(self):
        """Same equality through an actual multiprocessing pool, with
        shard results arriving in arbitrary order."""
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config, vantage="US-EDU-1", targets=targets[:24], pps=1100.0
        )
        reference = run_single(spec)
        merged = run_parallel(spec, shards=4, processes=2)
        assert_identical(merged, reference)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.sampled_from([7, 21]),
        n_targets=st.integers(min_value=1, max_value=30),
        ttl_range=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=5, max_value=12),
        ),
        key=st.integers(min_value=0, max_value=2**64),
        shards=st.integers(min_value=1, max_value=8),
        pps=st.sampled_from([250.0, 1000.0, 3333.0]),
    )
    def test_merge_property(self, seed, n_targets, ttl_range, key, shards, pps):
        """Satellite 1: for random (n, ttl range, key, N <= 8) the merged
        parallel campaign equals the single-process one field by field."""
        config, targets = small_world(seed)
        min_ttl, max_ttl = ttl_range
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:n_targets],
            pps=pps,
            config=Yarrp6Config(min_ttl=min_ttl, max_ttl=max_ttl, key=key),
        )
        reference = run_single(spec)
        merged = run_parallel(spec, shards=shards, processes=1)
        assert_identical(merged, reference)

    def test_more_shards_than_probes(self):
        """Five probes over eight shards: shards 5-7 send nothing, and the
        last of them ends at its 28 ms pace offset, after the single
        process's last event.  The merge must not take that as the
        campaign's duration."""
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:1],
            pps=250.0,
            config=Yarrp6Config(min_ttl=1, max_ttl=5, key=1),
        )
        reference = run_single(spec)
        merged = run_parallel(spec, shards=8, processes=1)
        assert_identical(merged, reference)

    def test_merged_name_and_metadata(self):
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config, vantage="US-EDU-1", targets=targets[:10]
        )
        merged = run_parallel(spec, shards=2, processes=1)
        assert merged.name == "US-EDU-1/yarrp6"
        assert merged.targets == 10
        assert merged.pps == spec.pps


START_METHODS = [
    method for method in ("fork", "spawn") if method in multiprocessing.get_all_start_methods()
]


def sha(result):
    return hashlib.sha256(dumps(result).encode()).hexdigest()


@pytest.mark.parametrize("start_method", START_METHODS)
class TestStartMethods:
    """Forked shards inherit the parent's world; spawned ones rebuild it
    from the spec.  Both routes give the single campaign's bytes."""

    @pytest.mark.parametrize("shards, processes", [(2, 2), (3, 3), (4, 2), (5, 2)])
    def test_the_sharded_dump_is_the_single_dump(self, start_method, shards, processes):
        config, targets = small_world(7)
        spec = CampaignSpec(internet=config, vantage="EU-NET", targets=targets[:20], pps=700.0)
        merged = run_parallel(spec, shards, processes=processes, start_method=start_method)
        assert sha(merged) == sha(run_single(spec))
        assert multiprocessing.active_children() == []

    def test_a_profiled_pool_gives_the_same_bytes_and_every_shards_profile(
        self, start_method
    ):
        config, targets = small_world(7)
        spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:20])
        prof = WallProfiler()
        merged = run_parallel(spec, 3, processes=3, start_method=start_method, profiler=prof)
        assert sha(merged) == sha(run_single(spec))
        workers = merged.wall_profile["workers"]
        assert [worker["shard"] for worker in workers] == [0, 1, 2]
        assert all(worker["pickle_bytes"] > 0 for worker in workers)
        for worker in workers:
            assert "shard.run" in {row["path"] for row in worker["phases"]}


    def test_shard_processes_find_or_build_the_world_by_start_method(self, start_method):
        """Under fork the parent builds or rewinds the world before the
        first process starts and every shard inherits it; a spawned shard
        starts empty and builds its own from the spec."""
        config, targets = small_world(7)
        spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:8])
        merged = run_parallel(
            spec, 2, processes=2, start_method=start_method, profiler=WallProfiler()
        )
        parent = {row["path"] for row in merged.wall_profile["phases"]}
        workers = [
            {row["path"] for row in worker["phases"]}
            for worker in merged.wall_profile["workers"]
        ]
        forked = start_method == "fork"
        assert ("parallel/world.rewind" in parent) == forked
        assert [("shard.run/world.build" in paths) for paths in workers] == [not forked] * 2
        assert all("shard.run/world.rewind" in paths for paths in workers)


def test_the_default_process_count_runs_the_single_campaign():
    config, targets = small_world(7)
    spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:12])
    assert sha(run_parallel(spec, 3)) == sha(run_single(spec))


class TestShardDecomposition:
    """What each shard sends: its own slice of the permutation, on its
    own slots of the single campaign's clock."""

    def spec(self):
        config, targets = small_world(7)
        return CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:15],
            pps=800.0,
            config=Yarrp6Config(min_ttl=1, max_ttl=9, key=5),
        )

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_the_shards_split_the_single_campaign(self, shards):
        spec = self.spec()
        reference = run_single(spec)
        parts = [run_shard(spec, shard, shards) for shard in range(shards)]
        assert [part.sent for part in parts] == [
            len(ProbeSchedule(15, 1, 9, 5, shard=shard, shards=shards))
            for shard in range(shards)
        ]
        assert sum(part.sent for part in parts) == reference.sent
        assert sorted(record_key(r) for part in parts for r in part.records) == sorted(
            record_key(r) for r in reference.records
        )

    @pytest.mark.parametrize("shards", [2, 3])
    def test_each_shard_sends_on_its_offset_and_stride(self, shards):
        """Shard ``s`` of ``N`` sends at ``s*base + k*N*base``: the slots
        the single process gives the positions it owns."""
        spec = self.spec()
        base = pps_interval(spec.pps)
        for shard in range(shards):
            part = run_shard(spec, shard, shards)
            sent_at = {r.received_at - r.rtt_us for r in part.records}
            assert sent_at
            assert {(t - shard * base) % (shards * base) for t in sent_at} == {0}


class TestMerge:
    def shard_results(self, shards=3):
        config, targets = small_world(7)
        spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:12])
        return spec, [run_shard(spec, shard, shards) for shard in range(shards)]

    def test_the_merge_is_a_pure_function_of_its_inputs(self):
        spec, parts = self.shard_results()
        before = [dumps(part) for part in parts]
        first = parallel_module.merge_results(parts, spec.pps, targets=len(spec.targets))
        second = parallel_module.merge_results(parts, spec.pps, targets=len(spec.targets))
        assert dumps(first) == dumps(second)
        assert [dumps(part) for part in parts] == before

    def test_the_merge_of_one_shard_is_that_shard(self):
        spec, (only,) = self.shard_results(shards=1)
        merged = parallel_module.merge_results([only], spec.pps, targets=len(spec.targets))
        assert_identical(merged, only)


def bomb(*args, **kwargs):
    raise AssertionError("no process may start and no world be built for a refused spec")


class TestExactCore:
    """``run_parallel`` shards only what merges back into the single
    campaign; anything else is refused by name before a process starts
    or a world is built."""

    DEFAULT = InternetConfig(n_edge=6, cpe_customers_per_isp=12, seed=3)

    def spec(self, internet, **config):
        return CampaignSpec(internet, "EU-NET", (1, 2), config=Yarrp6Config(**config))

    @pytest.fixture(autouse=True)
    def no_process_no_world(self, monkeypatch):
        monkeypatch.setattr(supervise_module, "_start", bomb)
        monkeypatch.setattr(parallel_module, "_world_for", bomb)

    def refusal(self, spec, shards=2):
        with pytest.raises(ValueError) as excinfo:
            run_parallel(spec, shards=shards, processes=2)
        return str(excinfo.value)

    @pytest.mark.parametrize(
        "internet, config, causes",
        [
            ("default", {}, "coupled world"),
            ("decoupled", {"fill": True}, "fill"),
            ("decoupled", {"neighborhood_ttl": 3}, "neighbourhood"),
            (
                "default",
                {"fill": True, "neighborhood_ttl": 3},
                "coupled world, fill, neighbourhood",
            ),
        ],
        ids=["coupled", "fill", "neighbourhood", "all-three"],
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_cause_is_refused_by_name(self, internet, config, causes, shards):
        world = self.DEFAULT if internet == "default" else decoupled_dynamics(self.DEFAULT)
        assert self.refusal(self.spec(world, **config), shards) == (
            "run_parallel shards only a decoupled world's pure walk; "
            "this spec has: %s" % causes
        )

    def test_every_coupling_decoupled_dynamics_removes_is_refused(self):
        """Undo one field of ``decoupled_dynamics`` at a time: each makes
        the world coupled, as a limiter or as a loss."""
        decoupled = decoupled_dynamics(self.DEFAULT)
        changed = [
            name
            for name in vars(decoupled)
            if getattr(decoupled, name) != getattr(self.DEFAULT, name)
        ]
        assert len(changed) >= 10
        for name in changed:
            spec = self.spec(replace(decoupled, **{name: getattr(self.DEFAULT, name)}))
            assert self.refusal(spec).endswith("this spec has: coupled world"), name

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("ceiling", [15, 16, 17])
    def test_fill_is_refused_exactly_where_the_fill_range_is_not_empty(self, fill, ceiling):
        """The refusal and the prober read one range, ``Yarrp6Config.fill_ttls``:
        ``[max_ttl, fill_ceiling)`` with fill on, else empty."""
        spec = self.spec(decoupled_dynamics(self.DEFAULT), fill=fill, fill_ceiling=ceiling)
        fills = fill and ceiling > 16
        assert list(spec.prober_config().fill_ttls) == ([16] if fills else [])
        if fills:
            assert self.refusal(spec).endswith("this spec has: fill")
        else:
            validate_spec(spec, 2, 2)


    @pytest.mark.parametrize(
        "internet, config, causes",
        [
            ("default", {}, "coupled world"),
            ("decoupled", {"fill": True}, "fill"),
            ("decoupled", {"neighborhood_ttl": 3}, "neighbourhood"),
            ("default", {"fill": True, "neighborhood_ttl": 3}, "coupled world, fill, neighbourhood"),
        ],
        ids=["coupled", "fill", "neighbourhood", "all-three"],
    )
    def test_the_inline_path_refuses_too(self, internet, config, causes, monkeypatch):
        """``processes=1`` runs the shards in this process; it refuses the
        same specs, before a shard runs."""
        monkeypatch.setattr(parallel_module, "run_shard", bomb)
        world = self.DEFAULT if internet == "default" else decoupled_dynamics(self.DEFAULT)
        with pytest.raises(ValueError) as excinfo:
            run_parallel(self.spec(world, **config), shards=2, processes=1)
        assert str(excinfo.value).endswith("this spec has: %s" % causes)

    @pytest.mark.parametrize("shards, processes", [(1, 1), (2, 1), (8, 3), (2, 16)])
    def test_a_decoupled_pure_walk_is_accepted(self, shards, processes):
        validate_spec(self.spec(decoupled_dynamics(self.DEFAULT)), shards, processes)


class TestValidation:
    def test_errors_raise_before_any_fork(self, monkeypatch):
        """Satellite 4: a bad shard count or config fails with one clean
        ValueError in the parent, before any worker pool exists."""
        monkeypatch.setattr(supervise_module, "_start", bomb)
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config, vantage="US-EDU-1", targets=targets[:5]
        )
        with pytest.raises(ValueError):
            run_parallel(spec, shards=0, processes=4)
        with pytest.raises(ValueError):
            run_parallel(spec, shards=-2, processes=4)
        bad_ttl = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:5],
            config=Yarrp6Config(min_ttl=9, max_ttl=3),
        )
        with pytest.raises(ValueError):
            run_parallel(bad_ttl, shards=4, processes=4)
        empty = CampaignSpec(internet=config, vantage="US-EDU-1", targets=())
        with pytest.raises(ValueError):
            run_parallel(empty, shards=2, processes=4)
        # The message Internet.vantage gives the serial path, from the
        # config alone: no world is built to refuse a typo.
        monkeypatch.setattr(parallel_module, "_world_for", bomb)
        lost = CampaignSpec(internet=config, vantage="NOPE", targets=targets[:5])
        with pytest.raises(ValueError) as excinfo:
            run_parallel(lost, shards=2, processes=4)
        assert str(excinfo.value) == (
            "unknown vantage 'NOPE' (configured: EU-NET, US-EDU-1, US-EDU-2)"
        )

    @pytest.mark.parametrize("processes", [0, -3])
    def test_a_process_count_below_one_is_refused_by_name(self, monkeypatch, processes):
        """A count below one is a caller bug: running the shards inline
        anyway would return the single campaign and hide it."""
        monkeypatch.setattr(supervise_module, "_start", bomb)
        monkeypatch.setattr(parallel_module, "_world_for", bomb)
        monkeypatch.setattr(parallel_module, "run_shard", bomb)
        config, targets = small_world(7)
        spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:5])
        with pytest.raises(ValueError) as excinfo:
            run_parallel(spec, shards=2, processes=processes)
        assert str(excinfo.value) == "processes must be >= 1: %d" % processes

    @pytest.mark.parametrize("shards", [0, -2])
    def test_a_shard_count_below_one_is_refused_by_name(self, monkeypatch, shards):
        """Checked before the process count, so ``processes=0`` does not
        hide it."""
        monkeypatch.setattr(supervise_module, "_start", bomb)
        monkeypatch.setattr(parallel_module, "_world_for", bomb)
        config, targets = small_world(7)
        spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:5])
        for processes in (4, 0):
            with pytest.raises(ValueError) as excinfo:
                run_parallel(spec, shards=shards, processes=processes)
            assert str(excinfo.value) == "shards must be >= 1: %d" % shards

    @pytest.mark.parametrize("shard, shards", [(0, 2), (1, 3), (2, 3)])
    def test_a_presharded_config_is_refused_by_name(self, shard, shards):
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:5],
            config=Yarrp6Config(shard=shard, shards=shards),
        )
        with pytest.raises(ValueError) as excinfo:
            validate_spec(spec, 2, 2)
        assert str(excinfo.value).endswith("got shard=%d shards=%d" % (shard, shards))

    @pytest.mark.parametrize(
        "value, name",
        [
            (lambda: CampaignSpec(InternetConfig(), "US-EDU-1", (1,)), "targets"),
            (InternetConfig, "seed"),
            (lambda: VantageConfig("V"), "premise_hops"),
            (Yarrp6Config, "key"),
        ],
        ids=["CampaignSpec", "InternetConfig", "VantageConfig", "Yarrp6Config"],
    )
    def test_the_spec_and_its_configs_are_frozen(self, value, name):
        """A worker cannot write through the spec: a store on it, or on
        any config it embeds, raises instead of diverging."""
        with pytest.raises(FrozenInstanceError):
            setattr(value(), name, 0)

    @pytest.mark.parametrize(
        "change, refusal",
        [
            (lambda spec: replace(spec, targets=list(spec.targets)), "spec.targets is a list"),
            (lambda spec: replace(spec, name=random.Random(7)), "spec.name is a Random"),
            (
                lambda spec: replace(spec, targets=(random.Random(7),) + spec.targets),
                "spec.targets[0] is a Random",
            ),
            (
                lambda spec: replace(
                    spec, internet=replace(spec.internet, dist_per_edge=[2, 5])
                ),
                "spec.internet.dist_per_edge is a list",
            ),
            (
                lambda spec: replace(
                    spec,
                    internet=replace(
                        spec.internet,
                        vantages=(VantageConfig("US-EDU-1", aggressive_hops=({"x": 1},)),),
                    ),
                ),
                "spec.internet.vantages[0].aggressive_hops[0] is a dict",
            ),
        ],
        ids=[
            "list-targets",
            "random-name",
            "random-in-targets",
            "list-dist-per-edge",
            "dict-in-aggressive-hops",
        ],
    )
    def test_a_spec_that_is_not_an_immutable_value_is_refused(
        self, change, refusal, monkeypatch
    ):
        """What crosses the pickle boundary is checked once, in the parent,
        before a world is built or a pool made; the refusal names the path."""
        monkeypatch.setattr(supervise_module, "_start", bomb)
        monkeypatch.setattr(parallel_module, "_world_for", bomb)
        config, targets = small_world(7)
        spec = change(CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:5]))
        with pytest.raises(ValueError) as excinfo:
            run_parallel(spec, shards=2, processes=2)
        assert str(excinfo.value).startswith(refusal + ","), str(excinfo.value)

    def test_presharded_config_rejected(self, monkeypatch):
        """run_parallel owns shard assignment; a spec that already carries
        a shard identity is a caller bug, not something to silently nest."""
        monkeypatch.setattr(supervise_module, "_start", bomb)
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config,
            vantage="US-EDU-1",
            targets=targets[:5],
            config=Yarrp6Config(shard=1, shards=3),
        )
        with pytest.raises(ValueError):
            run_parallel(spec, shards=2, processes=4)

    def test_worker_exception_surfaces_cleanly(self, monkeypatch):
        """A failure inside a worker becomes one ShardFailure carrying the
        worker traceback — not a hang, not a pickled half-error."""
        # validate_spec would refuse this vantage in the parent; let it
        # through so that the workers are what fails.
        monkeypatch.setattr(parallel_module, "validate_spec", lambda *args: None)
        config, targets = small_world(7)
        spec = CampaignSpec(
            internet=config, vantage="NO-SUCH-VANTAGE", targets=targets[:5]
        )
        with pytest.raises(ShardFailure) as excinfo:
            run_parallel(spec, shards=2, processes=2)
        message = str(excinfo.value)
        assert "worker failed" in message
        assert "NO-SUCH-VANTAGE" in message

    def test_merge_requires_results(self):
        with pytest.raises(ValueError):
            parallel_module.merge_results([], pps=1000.0)


def spec_with(**changes):
    config, targets = small_world(7)
    spec = CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:5])
    prober = changes.pop("prober", None)
    if prober is not None:
        changes["config"] = Yarrp6Config(**prober)
    return replace(spec, **changes)


class TestValidateCampaign:
    """The checks ``probe`` and ``run_parallel`` share: each refusal with
    the message the campaign itself would give, and no world built."""

    @pytest.fixture(autouse=True)
    def no_world(self, monkeypatch):
        monkeypatch.setattr(Internet, "from_config", bomb)
        monkeypatch.setattr(parallel_module, "_world_for", bomb)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"targets": ()}, "no targets"),
            (
                {"vantage": "us-edu-1"},
                "unknown vantage 'us-edu-1' (configured: EU-NET, US-EDU-1, US-EDU-2)",
            ),
            ({"prober": {"min_ttl": 0}}, "bad TTL range [0, 16]"),
            ({"prober": {"max_ttl": 256}}, "bad TTL range [1, 256]"),
            ({"prober": {"min_ttl": 9, "max_ttl": 3}}, "bad TTL range [9, 3]"),
            ({"pps": 0.0}, "rate must be positive and finite: 0.0"),
            ({"pps": -1.0}, "rate must be positive and finite: -1.0"),
            ({"pps": math.inf}, "rate must be positive and finite: inf"),
            ({"pps": -math.inf}, "rate must be positive and finite: -inf"),
            ({"pps": math.nan}, "rate must be positive and finite: nan"),
            ({"targets": [1, 2]}, "spec.targets is a list, not an immutable value"),
        ],
        ids=[
            "no-targets",
            "vantage",
            "min-ttl-0",
            "max-ttl-256",
            "ttl-inverted",
            "pps-0",
            "pps-negative",
            "pps-inf",
            "pps-minus-inf",
            "pps-nan",
            "list-targets",
        ],
    )
    def test_refused_with_the_campaigns_message(self, changes, message):
        with pytest.raises(ValueError) as excinfo:
            validate_campaign(spec_with(**changes))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("shards", [1, 2, 1000])
    def test_a_campaign_the_probers_run_is_accepted(self, shards):
        """More shards than probes is a valid split: the extra shards
        send nothing."""
        validate_campaign(spec_with(prober={"min_ttl": 1, "max_ttl": 255}), shards)


class TestCampaignSpec:
    def test_a_spec_survives_the_pickle_boundary_as_an_equal_value(self):
        spec = spec_with(prober={"max_ttl": 9, "key": 77}, name="x")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_defaults_name_the_vantage_and_the_default_prober(self):
        spec = spec_with()
        assert spec.default_name() == "US-EDU-1/yarrp6"
        assert spec.prober_config() == Yarrp6Config()
        assert replace(spec, name="named").default_name() == "named"

    def test_resolve_start_method_keeps_an_explicit_choice(self):
        assert supervise_module.resolve_start_method("spawn") == "spawn"
        expected = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        assert supervise_module.resolve_start_method(None) == expected
