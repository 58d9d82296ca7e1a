"""Tests for the virtual-time event engine."""

import gc
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.engine import Engine, US_PER_SECOND, pps_interval, seconds
from repro.obs.metrics import MetricsRegistry


class TestEngine:
    def test_starts_at_zero(self):
        assert Engine().now == 0

    def test_schedule_and_run(self):
        engine = Engine()
        fired = []
        engine.schedule(100, lambda: fired.append(engine.now))
        engine.schedule(50, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [50, 100]
        assert engine.now == 100

    def test_fifo_for_simultaneous(self):
        engine = Engine()
        fired = []
        for tag in range(5):
            engine.schedule(10, lambda tag=tag: fired.append(tag))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_run_until_stops(self):
        engine = Engine()
        fired = []
        engine.schedule(10, lambda: fired.append("early"))
        engine.schedule(1000, lambda: fired.append("late"))
        engine.run(until=100)
        assert fired == ["early"]
        assert engine.now == 100
        assert engine.pending == 1
        engine.run()
        assert fired == ["early", "late"]

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def first():
            fired.append(engine.now)
            engine.schedule(5, lambda: fired.append(engine.now))

        engine.schedule(10, first)
        engine.run()
        assert fired == [10, 15]

    def test_schedule_in_past_runs_now(self):
        engine = Engine()
        fired = []
        engine.schedule(100, lambda: engine.schedule_at(0, lambda: fired.append(engine.now)))
        engine.run()
        assert fired == [100]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1, lambda: None)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_fifo_among_equal_times(self, events):
        """(time, scheduling order) is the total event order, duplicate
        timestamps included: a same-time event never overtakes one
        scheduled before it."""
        engine = Engine()
        fired = []
        for tag, (_, delay) in enumerate(events):
            engine.schedule(delay, lambda tag=tag: fired.append(tag))
        engine.run()
        expected = [
            tag
            for _, tag in sorted(
                (delay, tag) for tag, (_, delay) in enumerate(events)
            )
        ]
        assert fired == expected


class TestDrive:
    """``Engine.drive``: the one pacing primitive every driver loop is a
    generator on."""

    def test_resumes_at_start_then_after_each_yielded_delay(self):
        engine = Engine()
        resumed = []

        def steps():
            for delay in (10, 0, 250):
                resumed.append(engine.now)
                yield delay
            resumed.append(engine.now)

        engine.drive(steps(), start=40)
        assert resumed == []  # nothing runs before the engine does
        engine.run()
        assert resumed == [40, 50, 50, 300]
        assert engine.now == 300

    def test_start_defaults_to_time_zero(self):
        engine = Engine()
        resumed = []

        def steps():
            resumed.append(engine.now)
            yield 7
            resumed.append(engine.now)

        engine.drive(steps())
        engine.run()
        assert resumed == [0, 7]

    def test_event_scheduled_by_a_step_fires_before_its_next_resumption(self):
        """Response first, next resumption second: on a time tie the
        event a step scheduled wins, as it did when the loop scheduled
        its response and then itself."""
        engine = Engine()
        order = []

        def steps():
            for index in range(3):
                order.append("step %d" % index)
                engine.schedule(5, lambda index=index: order.append("event %d" % index))
                yield 5

        engine.drive(steps())
        engine.run()
        assert order == [
            "step 0", "event 0", "step 1", "event 1", "step 2", "event 2",
        ]

    def test_return_ends_the_drive_with_no_trailing_event(self):
        registry = MetricsRegistry()
        engine = Engine(metrics=registry)

        def steps():
            yield 100
            yield 100

        engine.drive(steps())
        engine.run()
        assert engine.now == 200  # the last resumption, not one delay after it
        assert engine.pending == 0
        dump = registry.to_dict()
        assert dump["engine.events_scheduled"]["value"] == 3
        assert dump["engine.events_fired"]["value"] == 3

    def test_negative_yield_is_rejected(self):
        engine = Engine()

        def steps():
            yield -1

        engine.drive(steps())
        with pytest.raises(ValueError):
            engine.run()

    def test_exception_in_the_generator_surfaces_from_run(self):
        engine = Engine()

        def steps():
            yield 1
            raise RuntimeError("mid-campaign")

        engine.drive(steps())
        with pytest.raises(RuntimeError, match="mid-campaign"):
            engine.run()

    def test_run_until_leaves_a_suspended_generator_resumable(self):
        engine = Engine()
        resumed = []

        def steps():
            for _ in range(4):
                resumed.append(engine.now)
                yield 100

        engine.drive(steps())
        engine.run(until=150)
        assert resumed == [0, 100]
        assert engine.pending == 1
        engine.run()
        assert resumed == [0, 100, 200, 300]
        assert engine.pending == 0

    def test_a_finished_drive_holds_no_reference_to_its_generator(self):
        engine = Engine()

        def steps():
            yield 1

        generator = steps()
        dead = weakref.ref(generator)
        gc.disable()
        try:
            engine.drive(generator)
            del generator
            engine.run()
            assert dead() is None
        finally:
            gc.enable()


class TestChurn:
    """Order and bookkeeping under heavy scheduling traffic."""

    def test_order_holds_under_churn(self):
        """Schedule 12 288 events while the clock advances under them, so
        only a few are pending at a time; every event fires, in (time,
        FIFO) order."""
        engine = Engine()
        fired = []
        rng = random.Random(7)
        for tag in range(12_288):
            engine.schedule(
                rng.randrange(0, 10_000),
                lambda tag=tag: fired.append((engine.now, tag)),
            )
            engine.run(until=engine.now + 2_500)
            assert engine.pending <= 8
        engine.run()
        assert len(fired) == 12_288
        assert fired == sorted(fired)

    def test_events_scheduled_inside_a_running_callback_keep_their_order(self):
        """A callback that schedules 4 104 events from inside ``run``:
        all of them fire, in the order their times give."""
        engine = Engine()
        fired = []

        def stuff_queue():
            for index in range(4_104):
                engine.schedule(
                    1 + index, lambda index=index: fired.append(index)
                )

        engine.schedule(0, stuff_queue)
        engine.run()
        assert fired == list(range(4_104))

    def test_pending_tracks_live_events_under_churn(self):
        engine = Engine()
        for index in range(8_192):
            engine.schedule(10 + index, lambda: None)
        engine.run(until=10 + 8_192 - 4)
        assert engine.pending == 3
        engine.run()
        assert engine.pending == 0


class TestConversions:
    def test_seconds(self):
        assert seconds(1.5) == 1_500_000

    def test_pps_interval(self):
        assert pps_interval(1000) == 1000
        assert pps_interval(20) == 50_000
        assert pps_interval(10**9) == 1  # floor of one microsecond

    def test_pps_interval_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pps_interval(0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_pps_interval_rejects_a_non_finite_rate_by_name(self, rate):
        with pytest.raises(ValueError, match="finite: %r" % rate):
            pps_interval(rate)

    def test_us_per_second(self):
        assert US_PER_SECOND == 10**6
