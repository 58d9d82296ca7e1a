"""One wire exchange and one pacing loop, checked over the source tree.

``Internet.answer`` is the only code that reads a ``Response``'s
``delay_us``: a read anywhere else is a hand-written copy of the round
trip.  ``Engine.drive`` is the only code that paces a driver on the
virtual clock and ``Internet.exchange`` (``answer`` plus one
``schedule_at``) the only code that schedules a response; the columnar
Yarrp6 loop schedules none, it records the replies ``answer`` returns
itself.  Any other ``.schedule(`` / ``.schedule_at(`` call is a
hand-written campaign loop (and, if it names itself, a reference cycle
holding the world).  The paper benchmarks and the examples are held to
the same line as the package.
"""

import ast
import functools
import glob
import os

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: The trees held to the contract, as globs from the repository root.
TREES = ("src/repro/**/*.py", "benchmarks/test_*.py", "examples/*.py")


@functools.lru_cache(maxsize=None)
def sources():
    """(path from the root, parsed module) for every file in :data:`TREES`."""
    parsed = []
    for pattern in TREES:
        paths = sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True))
        assert paths, "nothing matches %s: the check would pass vacuously" % pattern
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            parsed.append((os.path.relpath(path, ROOT).replace(os.sep, "/"), tree))
    return parsed


def offenders(matches, allowed):
    """``path:line`` of every node ``matches`` accepts outside ``allowed``."""
    return [
        "%s:%d" % (path, node.lineno)
        for path, tree in sources()
        if not path.endswith(allowed)
        for node in ast.walk(tree)
        if matches(node)
    ]


def test_only_internet_exchange_reads_a_response_delay():
    def reads_delay(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "delay_us"
            and isinstance(node.ctx, ast.Load)
        )

    assert offenders(reads_delay, ("netsim/internet.py",)) == []


def test_only_the_engine_and_the_exchange_schedule():
    def schedules(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("schedule", "schedule_at")
        )

    assert offenders(schedules, ("netsim/engine.py", "netsim/internet.py")) == []
