"""Pytest plugin wiring the runtime sanitizers into the test suite.

Registered from the repository-root ``conftest.py``.  One opt-in flag
per sanitizer, of two kinds (the rows of :data:`SANITIZERS`):

**Wrapping flags** run every test body inside the sanitizer::

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

**Gating flags** enable tests that carry the marker of the same name and
are skipped by default because they are slow or violent::

    pytest --faultsan
    pytest --allocsan

``@pytest.mark.faultsan`` tests are the chaos grid: they drive real
worker pools through injected crash / hang / SIGKILL / corrupt-pickle
plans (see :mod:`repro.lint.faultsan`) and assert the supervised
runner's recovery paths stay byte-identical to unfaulted runs.  They
spawn pools, kill processes, and sleep past deadlines, so CI runs them
in its dedicated ``chaos`` job under ``timeout``; the fast always-on
recovery tests live unmarked in ``tests/prober/test_supervise.py``.
``@pytest.mark.allocsan`` tests run real campaigns under
:class:`repro.lint.allocsan.AllocSanProfiler` and assert the allocation
budgets (bytes per probe, blocks per batch) hold; tracemalloc slows the
interpreter severalfold, so CI runs them in a dedicated step alongside
the ``probe --allocsan`` smoke campaign.  The fast unit tests of the
accounting machinery live unmarked in ``tests/lint/test_allocsan.py``
and always run.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.lint.detsan import DetSan
from repro.lint.shardsan import ShardSan

#: ``(flag, action, --help text)``.  A wrapping flag's action is the
#: sanitizer class, entered around each test's call phase; a gating
#: flag's action is the reason tests carrying the marker named like the
#: flag are skipped without it.
SANITIZERS = (
    ("detsan", DetSan,
     "run every test inside the DetSan determinism sanitizer "
     "(repro.* code must not touch host time or OS entropy)"),
    ("shardsan", ShardSan,
     "run every test inside the ShardSan shared-world sanitizer "
     "(repro.* code must only write @run_state-registered world state)"),
    ("faultsan", "needs --faultsan (chaos suite)",
     "run the FaultSan chaos tests (fault-injected worker pools; "
     "slow, process-killing — CI runs these in the chaos job)"),
    ("allocsan", "needs --allocsan (budget suite)",
     "run the AllocSan budget tests (campaigns under tracemalloc; "
     "slow — CI runs these beside the --allocsan smoke campaign)"),
)


def pytest_addoption(parser: "pytest.Parser") -> None:
    for flag, _, text in SANITIZERS:
        parser.addoption("--" + flag, action="store_true", default=False, help=text)


def pytest_configure(config: "pytest.Config") -> None:
    for flag, action, text in SANITIZERS:
        if isinstance(action, str):
            config.addinivalue_line(
                "markers", "%s: runs only with --%s (%s)" % (flag, flag, text)
            )


def pytest_collection_modifyitems(
    config: "pytest.Config", items: "list[pytest.Item]"
) -> None:
    for flag, action, _ in SANITIZERS:
        if not isinstance(action, str) or config.getoption("--" + flag):
            continue
        skip = pytest.mark.skip(reason=action)
        for item in items:
            if item.get_closest_marker(flag) is not None:
                item.add_marker(skip)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: "pytest.Item") -> Iterator[None]:
    with contextlib.ExitStack() as stack:
        for flag, action, _ in SANITIZERS:
            if not isinstance(action, str) and item.config.getoption("--" + flag):
                stack.enter_context(action(mode="raise"))
        yield
