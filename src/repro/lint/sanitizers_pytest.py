"""Pytest plugin wiring the runtime sanitizers into the test suite.

Registered from the repository-root ``conftest.py``.  One opt-in flag
per sanitizer (the rows of :data:`SANITIZERS`), each running every test
body inside that sanitizer::

    PYTHONHASHSEED=0 pytest --detsan
    pytest --shardsan

``--detsan`` is ``DetSan(mode="raise")``: any ``repro.*``
code path that reads host time (outside ``repro.obs.wallclock``) or OS
entropy fails that test with a :class:`~repro.lint.detsan.
DetSanViolation` carrying the offending stack.  ``--shardsan`` is
``ShardSan(mode="raise")``: any ``repro.*`` code path that writes an attribute of a ``@run_state``-registered world class
outside its registered per-run and ``shared=`` fields fails with a
:class:`~repro.lint.shardsan.ShardSanViolation`; construction
(``__init__``) and the world builder (``repro.netsim.build``) pass
through — the contract is on campaign-time code, not on how worlds are
made.  In both, test code itself (``tests.*``) and third-party
internals pass through — the contract is on the library, not on the
harness — and only the test *call* phase is sanitized; fixtures and
collection run unpatched so harness-level timing (hypothesis deadlines,
tmp-path bookkeeping) and session-scoped world builds are unaffected.

The FaultSan chaos grid (``tests/prober/test_faultsan.py``) and the
AllocSan budget test (``tests/lint/test_allocsan.py``) need no flag:
they are ordinary tests and run with the rest of the suite.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.lint.detsan import DetSan
from repro.lint.shardsan import ShardSan

#: ``(flag, sanitizer class, --help text)``: the class is entered around
#: each test's call phase when the flag is given.
SANITIZERS = (
    ("detsan", DetSan,
     "run every test inside the DetSan determinism sanitizer "
     "(repro.* code must not touch host time or OS entropy)"),
    ("shardsan", ShardSan,
     "run every test inside the ShardSan shared-world sanitizer "
     "(repro.* code must only write @run_state-registered world state)"),
)


def pytest_addoption(parser: "pytest.Parser") -> None:
    for flag, _, text in SANITIZERS:
        parser.addoption("--" + flag, action="store_true", default=False, help=text)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: "pytest.Item") -> Iterator[None]:
    with contextlib.ExitStack() as stack:
        for flag, sanitizer, _ in SANITIZERS:
            if item.config.getoption("--" + flag):
                stack.enter_context(sanitizer(mode="raise"))
        yield
