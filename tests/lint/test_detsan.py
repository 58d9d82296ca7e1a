"""DetSan — runtime determinism sanitizer: tripwires, exemptions,
restore semantics, the message a trip raises, and the pytest plugin."""

import os
import random
import subprocess
import sys
import time
import uuid

import pytest

from repro.lint.detsan import DetSan, DetSanViolation
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
    # Kind, target and caller, on one line.
    assert "time time.time called from repro.fake_detsan_fixture" in str(excinfo.value)


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


def test_profiler_reads_time_through_the_wallclock_boundary():
    # repro.obs.profiler times its phases with repro.obs.wallclock.now,
    # so a profiled region passes like the Stopwatch boundary does.
    from repro.obs.profiler import WallProfiler

    with DetSan():
        prof = WallProfiler()
        with prof.phase("root"):
            with prof.agg("work"):
                pass
        prof.validate()
        assert prof.total_seconds() >= 0.0


def test_exemption_is_det001s_allowlist_object(monkeypatch):
    """DetSan reads DET001's allowlist itself, not a copy: widen it and a
    direct time read from the named module passes, entropy still trips."""
    from repro.lint.checkers import det001

    fn = repro_caller(CLOCK)
    entropy = repro_caller(URANDOM)
    with DetSan():
        with pytest.raises(DetSanViolation):
            fn()
    monkeypatch.setattr(
        det001, "WALLCLOCK_EXEMPT_MODULES",
        det001.WALLCLOCK_EXEMPT_MODULES | {"repro.fake_detsan_fixture"},
    )
    with DetSan():
        assert fn() > 0
        with pytest.raises(DetSanViolation):
            entropy()


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


def test_nested_regions_restore_lifo():
    original = time.time
    fn = repro_caller(CLOCK)
    harness = {"__name__": "tests.fake_detsan_fixture"}
    exec(compile(CLOCK, "<detsan-fixture>", "exec"), harness)
    with DetSan():
        outer_wire = time.time
        with DetSan():
            assert time.time is not outer_wire
            # The inner tripwire forwards a harness call to the outer one
            # from DetSan's own (exempt) module: it passes both.
            assert harness["f"]() > 0
            # The inner tripwire trips first and raises before it forwards
            # to the outer one: one tripwire frame, the one wrapping it.
            with pytest.raises(DetSanViolation) as tripped:
                fn()
            (wire,) = [e for e in tripped.traceback if e.name == "tripwire"]
            assert wire.locals["original"] is outer_wire
        assert time.time is outer_wire
        with pytest.raises(DetSanViolation) as tripped:
            fn()
        (wire,) = [e for e in tripped.traceback if e.name == "tripwire"]
        assert wire.locals["original"] is original
    assert time.time is original


def test_failing_install_restores_what_it_patched():
    seen = []

    class Failing(DetSan):
        def _patch(self, module, name, value):
            if len(seen) == 3:
                raise RuntimeError("install failed")
            seen.append((module, name, getattr(module, name)))
            super()._patch(module, name, value)

    with pytest.raises(RuntimeError, match="install failed"):
        Failing().__enter__()
    assert len(seen) == 3
    for module, name, before in seen:
        assert getattr(module, name) is before


# -- caller scope -----------------------------------------------------------


def test_non_repro_callers_pass_through():
    namespace = {"__name__": "tests.fake_detsan_fixture"}
    exec(compile(CLOCK, "<detsan-fixture>", "exec"), namespace)
    with DetSan():  # a trip would raise
        assert namespace["f"]() > 0


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


#: The columnar fast paths' equivalence suites and the engine under them:
#: each must stay bit-identical to its scalar reference AND read neither
#: host time nor OS entropy from ``repro.*`` code.
DETSAN_SUITE = (
    "tests/prober/test_batched_equivalence.py",
    "tests/prober/test_shared_world.py",
    "tests/netsim/test_engine.py",
    "tests/obs/test_profiler.py",
)


def test_equivalence_suite_is_clean_under_detsan():
    """``pytest --detsan`` over :data:`DETSAN_SUITE`, in a fresh
    interpreter with the hash seed pinned, exits 0."""
    root = os.path.dirname(SRC)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    finished = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--detsan", *DETSAN_SUITE],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=600,
    )
    assert finished.returncode == 0, finished.stdout[-3000:]
    assert " passed" in finished.stdout
