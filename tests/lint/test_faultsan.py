"""FaultSan unit tests: plan construction, seeded determinism, and the
inject gate.

The chaos grid that drives these faults through real pools lives in
``tests/prober/test_faultsan.py``; here we pin the injector itself.
"""

import pickle

import pytest

from repro.lint.faultsan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_SLOW,
    KINDS,
    SITE_WORKER_RESULT,
    SITE_WORKER_START,
    SITES,
    Fault,
    FaultInjected,
    FaultPlan,
    Unpicklable,
    inject,
    seeded_plan,
)


class TestPlans:
    def test_single_names_one_attempt(self):
        plan = FaultPlan.single(2, KIND_CRASH)
        assert plan.at(2, 1, SITE_WORKER_START) is not None
        assert plan.at(2, 2, SITE_WORKER_START) is None  # retry runs clean
        assert plan.at(1, 1, SITE_WORKER_START) is None
        assert plan.at(2, 1, SITE_WORKER_RESULT) is None

    def test_exhaust_covers_every_attempt(self):
        plan = FaultPlan.exhaust(1, KIND_CRASH, attempts=3)
        assert [fault.attempt for fault in plan.faults] == [1, 2, 3]
        for attempt in (1, 2, 3):
            assert plan.at(1, attempt, SITE_WORKER_START) is not None
        assert plan.at(1, 4, SITE_WORKER_START) is None

    def test_plans_are_picklable_values(self):
        """The plan travels inside the worker payload, so it must cross
        the pool pipe under fork and spawn alike."""
        plan = FaultPlan.exhaust(1, KIND_CRASH, attempts=2)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_seeded_plan_is_a_pure_function_of_the_seed(self):
        first = seeded_plan(seed=2018, shards=8, faults=4, attempts=3)
        again = seeded_plan(seed=2018, shards=8, faults=4, attempts=3)
        assert first == again
        assert len(first.faults) == 4
        for fault in first.faults:
            assert 0 <= fault.shard < 8
            assert 1 <= fault.attempt <= 3
            assert fault.kind in KINDS
            assert fault.site in SITES
            # corrupt swaps the result, so it must sit on the result site
            expected = (
                SITE_WORKER_RESULT
                if fault.kind == KIND_CORRUPT
                else SITE_WORKER_START
            )
            assert fault.site == expected


class TestInject:
    def test_no_plan_and_no_match_pass_values_through(self):
        assert inject(None, 0, 1, SITE_WORKER_START, "x") == "x"
        plan = FaultPlan.single(1, KIND_CRASH)
        assert inject(plan, 0, 1, SITE_WORKER_START, "x") == "x"
        assert inject(plan, 1, 2, SITE_WORKER_START, "x") == "x"

    def test_crash_raises_naming_the_site(self):
        plan = FaultPlan.single(1, KIND_CRASH)
        with pytest.raises(FaultInjected, match="shard 1, attempt 1"):
            inject(plan, 1, 1, SITE_WORKER_START)

    def test_corrupt_swaps_the_result_for_an_unpicklable(self):
        plan = FaultPlan.single(0, KIND_CORRUPT, site=SITE_WORKER_RESULT)
        swapped = inject(plan, 0, 1, SITE_WORKER_RESULT, "real result")
        assert isinstance(swapped, Unpicklable)
        with pytest.raises(FaultInjected):
            pickle.dumps(swapped)

    def test_slow_sleeps_then_continues(self):
        plan = FaultPlan.single(0, KIND_SLOW, seconds=0.0)
        assert inject(plan, 0, 1, SITE_WORKER_START, "x") == "x"

    def test_unknown_kind_is_an_error(self):
        plan = FaultPlan.single(0, "gamma-ray")
        with pytest.raises(ValueError, match="gamma-ray"):
            inject(plan, 0, 1, SITE_WORKER_START)

