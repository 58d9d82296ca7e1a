"""Every script under ``examples/`` is documented and runs to completion.

Outside ``tests/`` and ``benchmarks/`` the examples are the only callers
of ``run_speedtrap`` and the public ``run_*`` names (three of them run
fill mode through ``run_yarrp6``), so each runs as a user would: a fresh
interpreter with ``src`` on the path, in a directory of its own, exit
status 0.  The scripts are exactly the rows of README.md's Examples
table: a script without a row, or a row without a script, fails.
"""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def readme_examples():
    """The scripts README.md's Examples table lists, one per row."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as readme:
        text = readme.read()
    section = text.split("\n## Examples\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `examples/([^`]+\.py)` \|", section, re.MULTILINE)


def test_the_readme_lists_every_example():
    listed = readme_examples()
    assert len(listed) == len(set(listed))
    assert set(listed) == {os.path.basename(script) for script in EXAMPLES}


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
