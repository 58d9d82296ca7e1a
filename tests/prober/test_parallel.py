"""Tests for the parallel campaign runner (shard execution + merge).

The determinism contract under test: for a decoupled-dynamics world and
a pure permutation walk (no fill, no neighborhood skipping),

    run_parallel(spec, shards=N) == run_single(spec)

field by field, for any N.  The merge is a pure function of the shard
results, so most tests run the shards serially (``processes=1``) for
speed; one test drives a real worker pool end to end.
"""

import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import InternetConfig, VantageConfig, build_internet, decoupled_dynamics
from repro.prober import (
    CampaignSpec,
    ShardFailure,
    Yarrp6Config,
    contract,
    run_parallel,
    run_single,
)
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


class TestContract:
    """``contract(spec, workers)``: ``exact`` exactly where the merge is
    the single campaign, otherwise the N-instances label naming why."""

    DEFAULT = InternetConfig(n_edge=6, cpe_customers_per_isp=12, seed=3)

    def spec(self, internet, **config):
        return CampaignSpec(internet, "EU-NET", (1, 2), config=Yarrp6Config(**config))

    def test_one_worker_is_exact_whatever_the_spec(self):
        spec = self.spec(self.DEFAULT, fill=True, neighborhood_ttl=3)
        assert contract(spec, 1) == "exact"

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_decoupled_pure_walk_is_exact(self, workers):
        decoupled = decoupled_dynamics(self.DEFAULT)
        assert contract(self.spec(decoupled), workers) == "exact"
        # A fill range that is empty keeps the walk pure.
        assert contract(self.spec(decoupled, fill=True, fill_ceiling=16), workers) == "exact"

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("ceiling", [15, 16, 17])
    def test_fill_is_a_cause_exactly_where_the_fill_range_is_not_empty(self, fill, ceiling):
        """The label and the prober read one range, ``Yarrp6Config.fill_ttls``:
        ``[max_ttl, fill_ceiling)`` with fill on, else empty."""
        spec = self.spec(decoupled_dynamics(self.DEFAULT), fill=fill, fill_ceiling=ceiling)
        fills = fill and ceiling > 16
        assert list(spec.prober_config().fill_ttls) == ([16] if fills else [])
        assert contract(spec, 2) == ("2-instances (fill)" if fills else "exact")

    @pytest.mark.parametrize(
        "internet, config, label",
        [
            ("default", {}, "2-instances (limiters|loss)"),
            ("default", {"fill": True}, "2-instances (limiters|loss|fill)"),
            ("decoupled", {"fill": True}, "2-instances (fill)"),
            ("decoupled", {"neighborhood_ttl": 3}, "2-instances (neighbourhood)"),
            (
                "default",
                {"fill": True, "neighborhood_ttl": 3},
                "2-instances (limiters|loss|fill|neighbourhood)",
            ),
        ],
    )
    def test_each_cause_is_named(self, internet, config, label):
        world = self.DEFAULT if internet == "default" else decoupled_dynamics(self.DEFAULT)
        assert contract(self.spec(world, **config), 2) == label

    def test_every_coupling_decoupled_dynamics_removes_is_a_cause(self):
        """Undo one field of ``decoupled_dynamics`` at a time: each makes
        the run non-exact, as a limiter or as a loss."""
        decoupled = decoupled_dynamics(self.DEFAULT)
        changed = [
            name
            for name in vars(decoupled)
            if getattr(decoupled, name) != getattr(self.DEFAULT, name)
        ]
        assert len(changed) >= 10
        labels = {
            name: contract(
                self.spec(replace(decoupled, **{name: getattr(self.DEFAULT, name)})), 3
            )
            for name in changed
        }
        assert labels["response_loss"] == "3-instances (loss)"
        assert labels["core_limit_rate"] == labels["vantages"] == "3-instances (limiters)"
        assert set(labels.values()) == {"3-instances (loss)", "3-instances (limiters)"}

    def test_an_exact_label_is_the_single_campaign(self):
        config, targets = small_world(7)
        spec = CampaignSpec(config, "US-EDU-1", targets[:12], pps=2000.0)
        assert contract(spec, 3) == "exact"
        assert_identical(run_parallel(spec, shards=3, processes=1), run_single(spec))


class TestValidation:
    def bomb(self, *args, **kwargs):
        raise AssertionError("no attempt process may start for an invalid spec")

    def test_errors_raise_before_any_fork(self, monkeypatch):
        """Satellite 4: a bad shard count or config fails with one clean
        ValueError in the parent, before any worker pool exists."""
        monkeypatch.setattr(supervise_module, "_start", self.bomb)
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
        monkeypatch.setattr(parallel_module, "_world_for", self.bomb)
        lost = CampaignSpec(internet=config, vantage="NOPE", targets=targets[:5])
        with pytest.raises(ValueError) as excinfo:
            run_parallel(lost, shards=2, processes=4)
        assert str(excinfo.value) == (
            "unknown vantage 'NOPE' (configured: EU-NET, US-EDU-1, US-EDU-2)"
        )

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
        monkeypatch.setattr(supervise_module, "_start", self.bomb)
        monkeypatch.setattr(parallel_module, "_world_for", self.bomb)
        config, targets = small_world(7)
        spec = change(CampaignSpec(internet=config, vantage="US-EDU-1", targets=targets[:5]))
        with pytest.raises(ValueError) as excinfo:
            run_parallel(spec, shards=2, processes=2)
        assert str(excinfo.value).startswith(refusal + ","), str(excinfo.value)

    def test_presharded_config_rejected(self, monkeypatch):
        """run_parallel owns shard assignment; a spec that already carries
        a shard identity is a caller bug, not something to silently nest."""
        monkeypatch.setattr(supervise_module, "_start", self.bomb)
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
        monkeypatch.setattr(parallel_module, "validate_spec", lambda spec, shards: None)
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
