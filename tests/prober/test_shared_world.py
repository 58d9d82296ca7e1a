"""Shared-world sharding: one built internet, byte-identical shards.

The parallel runner no longer rebuilds the world once per shard: the
parent builds it once, fork workers inherit it copy-on-write and rewind
its run-scoped state (:meth:`Internet.fresh_run_state`), and spawn
workers — whose process starts with an empty module — fall back to
rebuilding from the spec's config.  These tests pin the two contracts
that make that safe:

* **rewind**: a world that has run a campaign, then been rewound, is
  observably identical to a freshly built one;
* **identity**: ``run_parallel`` through real fork pools at shard counts
  1/2/4/8, and through the spawn fallback, serializes byte-for-byte to
  the single-process reference (``output.dumps``).
"""

import multiprocessing

import pytest

from repro.netsim import Internet, InternetConfig, build_internet, decoupled_dynamics
from repro.prober import CampaignSpec, run_parallel, run_single
from repro.prober import parallel as parallel_module
from repro.prober.output import dumps
from repro.prober.parallel import _world_for, run_shard
from repro.prober.supervise import resolve_start_method

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

_WORLDS = {}


def shared_world_config(seed=11):
    """A tiny decoupled world config plus its leaf-host targets."""
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


def make_spec(n_targets=30, pps=1100.0, seed=11):
    config, targets = shared_world_config(seed)
    return CampaignSpec(
        internet=config,
        vantage="US-EDU-1",
        targets=targets[:n_targets],
        pps=pps,
    )


class TestFreshRunState:
    def test_rewound_world_replays_identically(self):
        """Campaign -> rewind -> campaign produces the same bytes as two
        freshly built worlds would."""
        spec = make_spec()
        world = Internet.from_config(spec.internet)
        from repro.prober.campaign import run_campaign

        first = run_campaign(
            world, spec.vantage, list(spec.targets), pps=spec.pps
        )
        world.fresh_run_state()
        second = run_campaign(
            world, spec.vantage, list(spec.targets), pps=spec.pps
        )
        assert dumps(second) == dumps(first)
        assert second.duration_us == first.duration_us
        assert second.summary == first.summary

    def test_rewind_reseeds_the_rng(self):
        """reset_dynamics deliberately lets the loss RNG stream continue
        across trials; fresh_run_state must instead rewind it to the
        constructor seed, like a rebuild would."""
        config, _ = shared_world_config()
        world = Internet.from_config(config)
        fresh_draws = [world._rng.random() for _ in range(5)]
        world.reset_dynamics()
        continued = world._rng.random()
        assert continued != fresh_draws[0]  # the stream continued
        world.fresh_run_state()
        assert [world._rng.random() for _ in range(5)] == fresh_draws

    def test_world_for_reuses_one_build(self):
        config, _ = shared_world_config()
        first = _world_for(config)
        second = _world_for(config)
        assert first is second

    def test_world_for_rebuilds_on_config_change(self):
        config_a, _ = shared_world_config(11)
        config_b, _ = shared_world_config(12)
        world_a = _world_for(config_a)
        world_b = _world_for(config_b)
        assert world_a is not world_b
        assert world_b.config == config_b


class TestShardByteIdentity:
    """The acceptance criterion: shards {1, 2, 4, 8} through real fork
    pools serialize identically to the single-process reference."""

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_fork_pool_dumps_identical(self, shards):
        spec = make_spec()
        reference = run_single(spec)
        merged = run_parallel(
            spec, shards=shards, processes=min(shards, 2), start_method="fork"
        )
        assert dumps(merged) == dumps(reference)

    def test_serial_shards_share_one_world(self, monkeypatch):
        """processes=1 runs every shard in this process on ONE world:
        builds must not scale with the shard count."""
        builds = []
        original = Internet.from_config.__func__

        def counting(cls, config=None, profiler=None):
            builds.append(config)
            return original(cls, config)

        monkeypatch.setattr(
            Internet, "from_config", classmethod(counting)
        )
        monkeypatch.setattr(parallel_module, "_SHARED_WORLD", None)
        spec = make_spec(n_targets=10)
        reference = run_single(spec)
        merged = run_parallel(spec, shards=8, processes=1)
        assert dumps(merged) == dumps(reference)
        assert len(builds) == 1


class TestSpawnFallback:
    def test_spawn_worker_rebuilds_identically(self, monkeypatch):
        """A spawn worker starts with no inherited world (module globals
        are empty): simulate that by clearing the cache and running the
        shard function in-process — it must rebuild from the spec's
        config and produce the same bytes a fork worker does."""
        spec = make_spec(n_targets=12)
        inherited = _world_for(spec.internet)
        with_inherited = run_shard(spec, 1, 3)
        assert parallel_module._SHARED_WORLD[1] is inherited

        monkeypatch.setattr(parallel_module, "_SHARED_WORLD", None)
        rebuilt = run_shard(spec, 1, 3)
        assert parallel_module._SHARED_WORLD[1] is not inherited
        assert dumps(rebuilt) == dumps(with_inherited)

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    @pytest.mark.parametrize("shards", [2, 4])
    def test_spawn_pool_end_to_end(self, shards):
        """Real spawn pool runs at shards {2, 4}: slower (each worker
        reimports and rebuilds) but byte-identical — this is the
        explicit ``start_method="spawn"`` leg of the detsan CI gate."""
        spec = make_spec(n_targets=12, pps=1500.0)
        reference = run_single(spec)
        merged = run_parallel(
            spec, shards=shards, processes=2, start_method="spawn"
        )
        assert dumps(merged) == dumps(reference)

    def test_resolve_start_method(self):
        assert resolve_start_method("spawn") == "spawn"
        assert resolve_start_method("fork") == "fork"
        resolved = resolve_start_method(None)
        assert resolved == ("fork" if HAS_FORK else "spawn")
