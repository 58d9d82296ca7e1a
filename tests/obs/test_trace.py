"""Span tracer semantics: nesting, validation, deterministic export."""

import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, TraceError, Tracer


class FakeClock:
    """A settable virtual clock standing in for ``engine.now``."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def make_tracer():
    clock = FakeClock()
    tracer = Tracer()
    tracer.bind_clock(clock)
    return tracer, clock


class TestRecording:
    def test_nested_spans_record_parent_indices(self):
        tracer, clock = make_tracer()
        with tracer.span("campaign"):
            clock.now = 10
            with tracer.span("tick"):
                with tracer.span("emit"):
                    pass
            clock.now = 20
        assert [(s.name, s.parent) for s in tracer.spans] == [
            ("campaign", -1),
            ("tick", 0),
            ("emit", 1),
        ]
        assert (tracer.spans[0].start_us, tracer.spans[0].end_us) == (0, 20)
        # Spans opened and closed at one virtual instant are zero-width.
        assert (tracer.spans[2].start_us, tracer.spans[2].end_us) == (10, 10)

    def test_event_is_a_closed_zero_width_span(self):
        tracer, clock = make_tracer()
        clock.now = 5
        with tracer.span("probe"):
            tracer.event("limiter.decision", allowed=True)
            tracer.event("late", when=5)
        first, second = tracer.spans[1], tracer.spans[2]
        assert (first.start_us, first.end_us, first.parent) == (5, 5, 0)
        assert (second.start_us, second.end_us) == (5, 5)
        assert first.attrs == {"allowed": True}

    def test_wrap_runs_the_call_inside_a_span_each_time(self):
        tracer, clock = make_tracer()
        double = tracer.wrap("emit", lambda value, scale: value * scale)
        assert tracer.spans == []  # binding records nothing
        with tracer.span("tick"):
            assert double(3, 2) == 6
            clock.now = 4
            assert double("ab", 2) == "abab"
        assert [(s.name, s.parent, s.start_us, s.end_us) for s in tracer.spans] == [
            ("tick", -1, 0, 4),
            ("emit", 0, 0, 0),
            ("emit", 0, 4, 4),
        ]

    def test_wrap_closes_its_span_when_the_call_raises(self):
        tracer, clock = make_tracer()

        def refuse():
            clock.now = 7
            raise KeyError("no")

        with pytest.raises(KeyError):
            tracer.wrap("probe", refuse)()
        assert (tracer.spans[0].name, tracer.spans[0].end_us) == ("probe", 7)
        tracer.validate()

    def test_out_of_order_close_raises(self):
        tracer, _ = make_tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(TraceError):
            outer.__exit__(None, None, None)


class TestValidate:
    def test_well_formed_trace_passes(self):
        tracer, clock = make_tracer()
        with tracer.span("campaign"):
            for start in (0, 10, 20):
                clock.now = start
                with tracer.span("tick"):
                    tracer.event("emit")
            clock.now = 30
        tracer.validate()

    def test_unclosed_span_fails(self):
        tracer, _ = make_tracer()
        tracer.span("campaign")
        with pytest.raises(TraceError, match="unclosed"):
            tracer.validate()

    def test_child_escaping_parent_fails(self):
        tracer, clock = make_tracer()
        with tracer.span("probe"):
            tracer.event("decision", when=99)  # beyond the parent's close
        with pytest.raises(TraceError, match="escapes"):
            tracer.validate()

    def test_sibling_overlap_fails(self):
        tracer, _ = make_tracer()
        tracer.event("a", when=10)
        tracer.event("b", when=5)  # starts before its sibling ended
        with pytest.raises(TraceError, match="overlaps"):
            tracer.validate()

    def test_backwards_clock_fails(self):
        tracer, clock = make_tracer()
        clock.now = 10
        with tracer.span("span"):
            clock.now = 5
        with pytest.raises(TraceError, match="ends before"):
            tracer.validate()


class TestExport:
    def test_dumps_is_deterministic(self):
        def build():
            tracer, clock = make_tracer()
            with tracer.span("campaign", prober="yarrp6", vantage="EU-NET"):
                clock.now = 7
                tracer.event("emit", ttl=3)
            return tracer.dumps()

        assert build() == build()

    def test_dumps_sorts_attrs(self):
        tracer, _ = make_tracer()
        tracer.event("e", zulu=1, alpha=2)
        data = json.loads(tracer.dumps())
        assert list(data["spans"][0]["attrs"]) == ["alpha", "zulu"]


class TestNullTracer:
    def test_noop_and_reusable(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        with NULL_TRACER.span("campaign"):
            NULL_TRACER.event("emit")
        NULL_TRACER.bind_clock(lambda: 99)
        assert NULL_TRACER.spans == []
        NULL_TRACER.validate()

    def test_wrap_hands_the_call_back(self):
        """A disabled tracer is absent from the loop that bound it."""
        call = [].append
        assert NULL_TRACER.wrap("emit", call) is call

    def test_span_handle_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
