"""DetSan — runtime determinism sanitizer: tripwires, exemptions,
restore semantics, the pytest plugin, and the ``probe --detsan``
byte-identity gate across shard counts.  (Modes, nesting and the caller
scope are the shared contract in ``test_sanitizer.py``.)"""

import os
import random
import subprocess
import sys
import time
import uuid

import pytest

from repro.lint.detsan import (
    DetSan,
    DetSanUsageError,
    DetSanViolation,
    hash_seed_pinned,
)
from repro.obs.wallclock import Stopwatch

HERE = os.path.dirname(__file__)
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))


def repro_caller(body):
    """Compile ``body`` under a fake ``repro.*`` module name so its calls
    trip the tripwires; returns the defined ``f``."""
    namespace = {"__name__": "repro.fake_detsan_fixture"}
    exec(compile(body, "<detsan-fixture>", "exec"), namespace)
    return namespace["f"]


CLOCK = "import time\ndef f():\n    return time.time()\n"
MODULE_RANDOM = "import random\ndef f():\n    return random.random()\n"
SEEDED_RANDOM = "import random\ndef f():\n    return random.Random(7).random()\n"
URANDOM = "import os\ndef f():\n    return os.urandom(4)\n"
UUID4 = "import uuid\ndef f():\n    return uuid.uuid4()\n"
SECRETS = "import secrets\ndef f():\n    return secrets.token_bytes(4)\n"


# -- tripwires --------------------------------------------------------------


def test_time_read_from_repro_module_raises():
    fn = repro_caller(CLOCK)
    with DetSan():
        with pytest.raises(DetSanViolation) as excinfo:
            fn()
    assert "time.time" in str(excinfo.value)
    assert "repro.fake_detsan_fixture" in str(excinfo.value)


def test_module_random_api_from_repro_module_raises():
    fn = repro_caller(MODULE_RANDOM)
    with DetSan():
        with pytest.raises(DetSanViolation):
            fn()


def test_seeded_random_instance_is_allowed():
    fn = repro_caller(SEEDED_RANDOM)
    with DetSan():
        assert fn() == random.Random(7).random()


@pytest.mark.parametrize("body", [URANDOM, UUID4, SECRETS])
def test_entropy_sources_raise(body):
    fn = repro_caller(body)
    with DetSan():
        with pytest.raises(DetSanViolation):
            fn()


# -- exemptions -------------------------------------------------------------


def test_wallclock_module_is_exempt():
    # repro.obs.wallclock is an allowlisted time boundary.
    with DetSan():
        watch = Stopwatch()
        assert watch.elapsed_seconds() >= 0.0


def test_profiler_module_is_exempt():
    # repro.obs.profiler reads host time for phase attribution; its
    # perf_counter reads pass through like the Stopwatch boundary does.
    from repro.obs.profiler import WallProfiler

    with DetSan():
        prof = WallProfiler()
        with prof.phase("root"):
            with prof.agg("work"):
                pass
        prof.validate()
        assert prof.total_seconds() >= 0.0


# -- patch/restore semantics ------------------------------------------------


def test_patches_are_restored_on_exit():
    originals = (time.time, random.random, os.urandom, uuid.uuid4)
    with DetSan():
        assert time.time is not originals[0]
    assert (time.time, random.random, os.urandom, uuid.uuid4) == originals


def test_restore_after_exception():
    original = random.random
    fn = repro_caller(MODULE_RANDOM)
    with pytest.raises(DetSanViolation):
        with DetSan():
            fn()
    assert random.random is original


# -- configuration guards ---------------------------------------------------


def test_hash_seed_pinned_predicate(monkeypatch):
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    assert not hash_seed_pinned()
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    assert not hash_seed_pinned()
    monkeypatch.setenv("PYTHONHASHSEED", "abc")
    assert not hash_seed_pinned()
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    assert hash_seed_pinned()
    monkeypatch.setenv("PYTHONHASHSEED", "12")
    assert hash_seed_pinned()


def test_require_hash_seed_blocks_unpinned_entry(monkeypatch):
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    with pytest.raises(DetSanUsageError):
        DetSan(require_hash_seed=True).__enter__()
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    before = time.time  # may itself be a tripwire if the suite runs --detsan
    with DetSan(require_hash_seed=True):
        pass
    assert time.time is before  # restored


# -- pytest plugin ----------------------------------------------------------

PLUGIN_TEST = """\
def test_clock_read_from_repro_code():
    namespace = {"__name__": "repro.fake_plugin_fixture"}
    exec("import time\\ndef f():\\n    return time.time()", namespace)
    namespace["f"]()
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
    tripped = run_pytest(tmp_path, ["--detsan"])
    assert tripped.returncode == 1
    assert "DetSanViolation" in tripped.stdout
    clean = run_pytest(tmp_path, [])
    assert clean.returncode == 0, clean.stdout


# -- probe --detsan: byte-identity across shard counts ----------------------


@pytest.fixture(scope="module")
def campaign_inputs(tmp_path_factory):
    from repro.cli.main import main

    base = tmp_path_factory.mktemp("detsan-campaign")
    world = str(base / "world.json")
    seeds = str(base / "seeds.jsonl")
    targets = str(base / "targets.jsonl")
    assert main(["world", "--seed", "7", "--edge", "12", "--cpe", "40",
                 "--out", world]) == 0
    assert main(["seeds", "--world", world, "--source", "caida",
                 "--out", seeds]) == 0
    assert main(["targets", "--seeds", seeds, "--out", targets]) == 0
    return base, world, targets


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_probe_detsan_dump_is_byte_identical(
    campaign_inputs, monkeypatch, workers
):
    from repro.cli.main import main

    base, world, targets = campaign_inputs
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    plain = str(base / ("plain-%d.yrp6" % workers))
    sanitized = str(base / ("detsan-%d.yrp6" % workers))
    argv = ["probe", "--world", world, "--targets", targets,
            "--workers", str(workers)]
    assert main(argv + ["--out", plain]) == 0
    assert main(argv + ["--detsan", "--out", sanitized]) == 0
    with open(plain, "rb") as first, open(sanitized, "rb") as second:
        assert first.read() == second.read()


def test_probe_detsan_requires_pinned_hash_seed(
    campaign_inputs, monkeypatch
):
    from repro.cli.main import main

    base, world, targets = campaign_inputs
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    code = main(["probe", "--world", world, "--targets", targets,
                 "--detsan", "--out", str(base / "never.yrp6")])
    assert code == 2
