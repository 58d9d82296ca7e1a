"""The contract every wrapping sanitizer inherits from
``repro.lint.sanitizer.Sanitizer`` — modes, LIFO restore, failed-install
cleanup, caller scope, record mode — run once per subclass.  What only
one sanitizer does (DetSan's source tables and wall-clock exemption,
ShardSan's construction exemption and container watching) stays in
``test_detsan.py`` / ``test_shardsan.py``."""

import time
from typing import Any, NamedTuple, Tuple

import pytest

from repro.lint.detsan import DetSan, DetSanUsageError
from repro.lint.sanitizer import Sanitizer
from repro.lint.shardsan import ShardSan, ShardSanUsageError
from repro.netsim.ratelimit import TokenBucket


class Case(NamedTuple):
    sanitizer: type
    usage_error: type
    #: (owner, attribute) the sanitizer is known to patch.
    patched: Tuple[Any, str]
    #: body of ``f()``: one offence, returning proof the call went through.
    offence: str
    proof: Any
    kind: str
    target: str
    summary: str


CASES = [
    Case(
        DetSan,
        DetSanUsageError,
        (time, "time"),
        "import time\ndef f():\n    return type(time.time())\n",
        float,
        "time",
        "time.time",
        "time time.time called from repro.fake_contract_fixture",
    ),
    Case(
        ShardSan,
        ShardSanUsageError,
        (TokenBucket, "__setattr__"),
        # burst is a provisioning knob, deliberately NOT in @run_state.
        "def f():\n    bucket.burst = 20.0\n    return bucket.burst\n",
        20.0,
        "setattr",
        "TokenBucket.burst",
        "unregistered setattr write TokenBucket.burst from "
        "repro.fake_contract_fixture",
    ),
]

pytestmark = pytest.mark.parametrize(
    "case", CASES, ids=[case.sanitizer.__name__ for case in CASES]
)


def offender(case, module="repro.fake_contract_fixture"):
    """``case.offence`` compiled as if it lived in ``module``."""
    namespace = {"__name__": module, "bucket": TokenBucket(1000.0, 10.0)}
    exec(compile(case.offence, "<contract-fixture>", "exec"), namespace)
    return namespace["f"]


def installed(case):
    owner, name = case.patched
    return vars(owner).get(name)


def test_bad_mode_is_a_usage_error(case):
    assert issubclass(case.sanitizer, Sanitizer)
    with pytest.raises(case.usage_error):
        case.sanitizer(mode="bogus")


def test_nested_regions_restore_lifo(case):
    original = installed(case)
    fn = offender(case)
    with case.sanitizer(mode="record") as outer:
        outer_wire = installed(case)
        with case.sanitizer(mode="record") as inner:
            assert installed(case) is not outer_wire
            fn()
        assert installed(case) is outer_wire
        fn()
    assert installed(case) is original
    assert len(inner.reports) == 1
    # The inner tripwire forwards to the outer one from the sanitizer's
    # own (exempt) module, so the outer region sees the second call only.
    assert len(outer.reports) >= 1


def test_failing_install_restores_what_it_patched(case):
    seen = []

    class Failing(case.sanitizer):
        def _patch(self, owner, name, value):
            if len(seen) == 3:
                raise RuntimeError("install failed")
            seen.append((owner, name, vars(owner).get(name)))
            super()._patch(owner, name, value)

    with pytest.raises(RuntimeError, match="install failed"):
        Failing().__enter__()
    assert len(seen) == 3
    for owner, name, before in seen:
        assert vars(owner).get(name) is before


def test_non_repro_callers_pass_through(case):
    fn = offender(case, module="tests.fake_contract_fixture")
    with case.sanitizer() as sanitizer:  # raise mode: a trip would abort
        assert fn() == case.proof
    assert sanitizer.reports == []


def test_record_mode_reports_and_lets_the_call_proceed(case):
    fn = offender(case)
    with case.sanitizer(mode="record") as sanitizer:
        assert fn() == case.proof
    (report,) = sanitizer.reports
    assert (report.kind, report.target) == (case.kind, case.target)
    assert report.caller == "repro.fake_contract_fixture"
    assert report.stack  # captured frames for the offender
    assert sanitizer.summary(report) == case.summary
