"""Tests for the virtual-time event engine."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.engine import (
    _COMPACT_MIN,
    Engine,
    US_PER_SECOND,
    pps_interval,
    seconds,
)


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

    def test_step(self):
        engine = Engine()
        fired = []
        engine.schedule(3, lambda: fired.append(1))
        assert engine.step()
        assert fired == [1]
        assert not engine.step()

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
        """The columnar queue's core claim: (time, scheduling order) is
        the total event order, exactly as a (when, seq, cb) tuple heap
        would produce — including duplicate timestamps."""
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


class TestCompaction:
    def test_compaction_preserves_order_and_results(self):
        """Push enough churn through the queue to trigger slot-array
        compaction repeatedly; firing order must stay (time, FIFO)."""
        engine = Engine()
        fired = []
        rng = random.Random(7)
        pending = 0

        def make(tag):
            return lambda: fired.append(tag)

        tag = 0
        for _ in range(3 * _COMPACT_MIN):
            engine.schedule(rng.randrange(0, 10_000), make(tag))
            tag += 1
            pending += 1
            # Keep the live count low so the mostly-dead threshold trips.
            while pending > 4:
                engine.step()
                pending -= 1
        engine.run()
        assert len(fired) == tag
        assert sorted(fired) == list(range(tag))

    def test_compaction_keeps_aliases_valid_inside_run(self):
        """run() holds aliases to the heap and slot lists; a compaction
        triggered by scheduling from *inside* a callback must mutate
        those lists in place, not rebind them."""
        engine = Engine()
        fired = []

        def stuff_queue():
            # Enough appends to cross _COMPACT_MIN while almost all
            # earlier slots are dead -> compaction fires mid-run.
            for index in range(_COMPACT_MIN + 8):
                engine.schedule(
                    1 + index, lambda index=index: fired.append(index)
                )

        engine.schedule(0, stuff_queue)
        engine.run()
        assert fired == list(range(_COMPACT_MIN + 8))

    def test_slot_array_shrinks_when_mostly_dead(self):
        """The compaction actually reclaims memory: after heavy churn the
        slot array must not retain one entry per ever-scheduled event."""
        engine = Engine()
        for index in range(4 * _COMPACT_MIN):
            engine.schedule(index, lambda: None)
            engine.step()
        assert len(engine._slots) < 2 * _COMPACT_MIN

    def test_pending_tracks_live_events_across_compaction(self):
        engine = Engine()
        for index in range(2 * _COMPACT_MIN):
            engine.schedule(10 + index, lambda: None)
        for _ in range(2 * _COMPACT_MIN - 3):
            engine.step()
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

    def test_us_per_second(self):
        assert US_PER_SECOND == 10**6
