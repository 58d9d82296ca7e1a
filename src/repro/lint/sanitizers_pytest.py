"""Pytest plugin wiring DetSan into the test suite.

Registered from the repository-root ``conftest.py``.  One opt-in flag
runs every test body inside the determinism sanitizer::

    PYTHONHASHSEED=0 pytest --detsan

``--detsan`` wraps each test call in a ``DetSan()`` region: any ``repro.*``
code path that reads host time (outside ``repro.obs.wallclock``) or OS
entropy fails that test with a :class:`~repro.lint.detsan.
DetSanViolation` carrying the offending stack.  Test code itself
(``tests.*``) and third-party internals pass through — the contract is
on the library, not on the harness — and only the test *call* phase is
sanitized; fixtures and collection run unpatched so harness-level timing
(hypothesis deadlines, tmp-path bookkeeping) and session-scoped world
builds are unaffected.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.lint.detsan import DetSan


def pytest_addoption(parser: "pytest.Parser") -> None:
    parser.addoption(
        "--detsan",
        action="store_true",
        default=False,
        help="run every test inside the DetSan determinism sanitizer "
        "(repro.* code must not touch host time or OS entropy)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: "pytest.Item") -> Iterator[None]:
    sanitized = item.config.getoption("--detsan")
    with DetSan() if sanitized else contextlib.nullcontext():
        yield
