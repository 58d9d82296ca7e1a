"""Every script under ``examples/`` runs to completion.

Outside ``tests/`` and ``benchmarks/`` the examples are the only callers
of ``run_mda``, ``run_speedtrap``, ``discover_pmtu`` and the public
``run_*`` names (three of them run fill mode through ``run_yarrp6``), so
each runs as a user would: a fresh interpreter with ``src`` on the path,
in a directory of its own, exit status 0.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_there_are_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs_to_completion(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    finished = subprocess.run(
        [sys.executable, script],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    assert finished.stdout
    assert not os.listdir(str(tmp_path))
