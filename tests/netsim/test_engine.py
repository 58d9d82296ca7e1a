"""Tests for the virtual-time event engine."""

import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.engine import Engine, US_PER_SECOND, pps_interval, seconds


class TestEngine:
    """The reference scheduler: events fire in (time, scheduling order)."""

    def test_starts_at_zero(self):
        assert Engine().now == 0

    def test_schedule_and_run(self):
        engine = Engine()
        fired = []
        engine.schedule_at(100, lambda: fired.append(engine.now))
        engine.schedule_at(50, lambda: fired.append(engine.now))
        assert engine.run() == 100
        assert fired == [50, 100]
        assert engine.now == 100

    def test_fifo_for_simultaneous(self):
        engine = Engine()
        fired = []
        for tag in range(5):
            engine.schedule_at(10, lambda tag=tag: fired.append(tag))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def first():
            fired.append(engine.now)
            engine.schedule_at(engine.now + 5, lambda: fired.append(engine.now))

        engine.schedule_at(10, first)
        engine.run()
        assert fired == [10, 15]

    def test_schedule_in_past_runs_now(self):
        engine = Engine()
        fired = []
        engine.schedule_at(100, lambda: engine.schedule_at(0, lambda: fired.append(engine.now)))
        engine.run()
        assert fired == [100]

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, times):
        engine = Engine()
        fired = []
        for when in times:
            engine.schedule_at(when, lambda: fired.append(engine.now))
        engine.run()
        assert fired == sorted(times)

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
        for tag, (_, when) in enumerate(events):
            engine.schedule_at(when, lambda tag=tag: fired.append(tag))
        engine.run()
        expected = [
            tag
            for _, tag in sorted(
                (when, tag) for tag, (_, when) in enumerate(events)
            )
        ]
        assert fired == expected

    def test_events_scheduled_inside_a_running_callback_keep_their_order(self):
        """A callback that schedules 4 104 events from inside ``run``:
        all of them fire, in the order their times give."""
        engine = Engine()
        fired = []

        def stuff_queue():
            for index in range(4_104):
                engine.schedule_at(
                    engine.now + 1 + index, lambda index=index: fired.append(index)
                )

        engine.schedule_at(0, stuff_queue)
        engine.run()
        assert fired == list(range(4_104))

    def test_a_finished_run_holds_no_reference_to_its_callbacks(self):
        engine = Engine()

        def callback():
            pass

        dead = weakref.ref(callback)
        gc.disable()
        try:
            engine.schedule_at(1, callback)
            del callback
            engine.run()
            assert dead() is None
        finally:
            gc.enable()


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
