"""ShardSan — runtime shared-world write sanitizer: setattr tripwires,
construction and build exemptions, container watching, restore
semantics, the pytest plugin, and the ``probe --shardsan`` gate.
(Modes, nesting and the caller scope are the shared contract in
``test_sanitizer.py``.)"""

import os
import subprocess
import sys

import pytest

from repro.lint.shardsan import ShardSan, ShardSanViolation
from repro.netsim import Internet, InternetConfig
from repro.netsim.ratelimit import TokenBucket

HERE = os.path.dirname(__file__)
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

SMALL_WORLD = InternetConfig(seed=7, n_edge=12, cpe_customers_per_isp=40)


def repro_caller(body):
    """Compile ``body`` under a fake ``repro.*`` module name so its writes
    trip the tripwires; returns the defined ``f``."""
    namespace = {"__name__": "repro.fake_shardsan_fixture"}
    exec(compile(body, "<shardsan-fixture>", "exec"), namespace)
    return namespace["f"]


@pytest.fixture(scope="module")
def world():
    return Internet.from_config(SMALL_WORLD)


# -- setattr tripwires ------------------------------------------------------


def test_unregistered_setattr_from_repro_module_raises():
    bucket = TokenBucket(1000.0, 10.0)
    # rate is a provisioning knob, deliberately NOT in @run_state.
    fn = repro_caller("def f(bucket):\n    bucket.rate = 9.0\n")
    with ShardSan():
        with pytest.raises(ShardSanViolation) as excinfo:
            fn(bucket)
    assert "TokenBucket.rate" in str(excinfo.value)
    assert "repro.fake_shardsan_fixture" in str(excinfo.value)


def test_registered_field_write_is_allowed():
    bucket = TokenBucket(1000.0, 10.0)
    fn = repro_caller("def f(bucket):\n    bucket.allowed = 3\n")
    with ShardSan():
        fn(bucket)
    assert bucket.allowed == 3


def test_shared_field_write_is_allowed(world):
    fn = repro_caller("def f(world):\n    world._path_cache = dict(world._path_cache)\n")
    with ShardSan():
        fn(world)


def test_construction_inside_region_is_exempt():
    fn = repro_caller(
        "from repro.netsim.ratelimit import TokenBucket\n"
        "def f():\n    return TokenBucket(500.0, 5.0)\n"
    )
    with ShardSan():
        bucket = fn()
    assert bucket.rate == 500.0


def test_world_build_inside_region_is_exempt():
    # Building a world writes dozens of unregistered fields — all from
    # __init__ bodies or repro.netsim.build, both exempt by design.
    with ShardSan():
        fresh = Internet.from_config(SMALL_WORLD)
    assert fresh.truth.routers


# -- container watching -----------------------------------------------------


def test_watched_unregistered_container_trips(world):
    fn = repro_caller("def f(world):\n    world.truth.routers[-1] = None\n")
    with ShardSan() as sanitizer:
        assert sanitizer.watch(world) > 0
        with pytest.raises(ShardSanViolation) as excinfo:
            fn(world)
    assert "GroundTruth.routers.setitem" in str(excinfo.value)
    assert -1 not in world.truth.routers  # raise mode blocks the write


def test_registered_container_mutation_is_not_watched(world):
    # router_state is registered per-run state on Internet.
    fn = repro_caller("def f(world):\n    world.router_state[5] = 1\n")
    with ShardSan() as sanitizer:
        sanitizer.watch(world)
        fn(world)
    assert world.router_state.pop(5) == 1


def test_shared_cache_mutation_is_not_watched(world):
    fn = repro_caller("def f(world):\n    world._path_cache.clear()\n")
    with ShardSan() as sanitizer:
        sanitizer.watch(world)
        fn(world)


def test_unwatch_restores_plain_types_and_preserves_mutations(world):
    fn = repro_caller("def f(world):\n    world._tier[-7] = 3\n")
    with ShardSan(mode="record") as sanitizer:
        sanitizer.watch(world)
        fn(world)
        assert type(world._tier) is not dict
    assert type(world._tier) is dict
    assert type(world.truth.routers) is dict
    assert world._tier.pop(-7) == 3
    assert len(sanitizer.reports) == 1


def test_setattr_patches_are_restored_on_exit():
    original = TokenBucket.__dict__.get("__setattr__")
    with ShardSan():
        assert TokenBucket.__dict__.get("__setattr__") is not original
    assert TokenBucket.__dict__.get("__setattr__") is original


# -- end-to-end: campaigns on one watched world -----------------------------


def test_campaign_across_shard_widths_is_clean(world):
    from repro.prober import CampaignSpec, Yarrp6Config, run_parallel
    from repro.prober import parallel as parallel_mod

    targets = tuple(world.truth.all_host_addresses()[:48])
    spec = CampaignSpec(
        internet=SMALL_WORLD,
        vantage="US-EDU-1",
        targets=targets,
        pps=1000.0,
        config=Yarrp6Config(max_ttl=16, fill=False),
    )
    with ShardSan(mode="record") as sanitizer:
        shared = parallel_mod._world_for(SMALL_WORLD)
        assert sanitizer.watch(shared) > 0
        for shards in (1, 2, 4):
            run_parallel(spec, shards=shards, processes=1)
    assert sanitizer.reports == []


# -- pytest plugin ----------------------------------------------------------

PLUGIN_TEST = """\
def test_unregistered_write_from_repro_code():
    from repro.netsim.ratelimit import TokenBucket
    bucket = TokenBucket(1000.0, 10.0)
    namespace = {"__name__": "repro.fake_plugin_fixture"}
    exec("def f(bucket):\\n    bucket.rate = 1.0", namespace)
    namespace["f"](bucket)
"""


def run_pytest(tmp_path, extra):
    test_file = tmp_path / "test_plugin_fixture.py"
    test_file.write_text(PLUGIN_TEST)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "repro.lint.sanitizers_pytest",
         str(test_file)] + extra,
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


def test_pytest_plugin_sanitizes_test_calls(tmp_path):
    tripped = run_pytest(tmp_path, ["--shardsan"])
    assert tripped.returncode == 1
    assert "ShardSanViolation" in tripped.stdout
    clean = run_pytest(tmp_path, [])
    assert clean.returncode == 0, clean.stdout


# -- probe --shardsan: the CLI gate -----------------------------------------


@pytest.fixture(scope="module")
def campaign_inputs(tmp_path_factory):
    from repro.cli.main import main

    base = tmp_path_factory.mktemp("shardsan-campaign")
    world_path = str(base / "world.json")
    seeds = str(base / "seeds.jsonl")
    targets = str(base / "targets.jsonl")
    assert main(["world", "--seed", "7", "--edge", "12", "--cpe", "40",
                 "--out", world_path]) == 0
    assert main(["seeds", "--world", world_path, "--source", "caida",
                 "--out", seeds]) == 0
    assert main(["targets", "--seeds", seeds, "--out", targets]) == 0
    return base, world_path, targets


def test_probe_shardsan_gate_is_clean(campaign_inputs, capsys):
    from repro.cli.main import main

    base, world_path, targets = campaign_inputs
    out = str(base / "gate.yrp6")
    assert main(["probe", "--world", world_path, "--targets", targets,
                 "--shardsan", "--out", out]) == 0
    output = capsys.readouterr().out
    for shards in (1, 2, 4):
        assert "shardsan: shards=%d clean" % shards in output
    assert "shardsan: clean (0 unregistered writes across shards 1/2/4)" in output
    assert os.path.getsize(out) > 0


def test_probe_shardsan_rejects_non_yarrp6(campaign_inputs):
    from repro.cli.main import main

    base, world_path, targets = campaign_inputs
    code = main(["probe", "--world", world_path, "--targets", targets,
                 "--prober", "sequential", "--shardsan",
                 "--out", str(base / "never.yrp6")])
    assert code == 2


def test_probe_shardsan_and_detsan_are_exclusive(campaign_inputs):
    from repro.cli.main import main

    base, world_path, targets = campaign_inputs
    code = main(["probe", "--world", world_path, "--targets", targets,
                 "--detsan", "--shardsan", "--out", str(base / "never.yrp6")])
    assert code == 2
