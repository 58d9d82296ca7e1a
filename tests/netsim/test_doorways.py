"""One wire exchange and no event scheduler, checked over the source tree.

``Internet.answer`` is the only code that reads a ``Response``'s
``delay_us``: a read anywhere else is a hand-written copy of the round
trip.  Every driver is a plain loop over its own clock that holds the
replies ``answer`` returns and hands them on itself, so nothing outside
``netsim/engine.py`` constructs an ``Engine`` or schedules on one; a
``.schedule_at(`` call elsewhere is a hand-written event loop (and, if
it names itself, a reference cycle holding the world).  The paper
benchmarks and the examples are held to the same line as the package.
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


def test_only_internet_answer_reads_a_response_delay():
    def reads_delay(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "delay_us"
            and isinstance(node.ctx, ast.Load)
        )

    assert offenders(reads_delay, ("netsim/internet.py",)) == []


def test_only_the_engine_schedules():
    def schedules(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("schedule", "schedule_at")
        )

    assert offenders(schedules, ("netsim/engine.py",)) == []


def test_no_driver_constructs_an_engine():
    def constructs_engine(node):
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "Engine")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Engine")
        )

    assert offenders(constructs_engine, ("netsim/engine.py",)) == []
