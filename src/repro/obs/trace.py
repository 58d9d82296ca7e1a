"""Virtual-time span tracing with nested context.

A :class:`Tracer` records intervals of **virtual time** as spans —
``campaign`` wrapping the whole run, ``tick`` for one pacing-loop
iteration, ``emit``/``probe`` inside it, zero-width ``limiter.decision``
events inside ``probe`` — so a trace shows *where in the virtual
schedule* things happened, never how long they took on the host CPU
(wall time is banned from sim code; see DET001).

Because the engine is a single-threaded run-to-completion scheduler, a
simple open-span stack gives strict nesting by construction: a span
closes before its parent, siblings never interleave, and virtual time
only advances between events, so spans opened and closed inside one
callback are zero-width.  The exported trace is deterministic: same
spec, same bytes.

The default is :data:`NULL_TRACER`, whose ``span()`` returns a shared
no-op context manager.  A per-event loop does not pay even that: it
binds its calls through :meth:`Tracer.wrap` once, and the null tracer's
``wrap`` hands the call back untouched — a disabled tracer is absent
from the loop, not a no-op inside it.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional


class TraceError(ValueError):
    """Raised for malformed traces (unclosed or misnested spans)."""


class Span:
    """One named virtual-time interval."""

    __slots__ = ("name", "start_us", "end_us", "parent", "attrs")

    def __init__(
        self,
        name: str,
        start_us: int,
        parent: int,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start_us = start_us
        #: Set on close; -1 while the span is open.
        self.end_us = -1
        #: Index of the enclosing span in the trace, or -1 for roots.
        self.parent = parent
        self.attrs = attrs or {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "parent": self.parent,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
        }


class _SpanHandle:
    """Context manager closing one span on exit."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._index)


class Tracer:
    """Records spans against a virtual clock.

    The clock is bound late (:meth:`bind_clock`) because the engine that
    owns virtual time is usually created inside ``run_campaign`` after
    the tracer already exists.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock: Callable[[], int] = clock if clock is not None else (lambda: 0)
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Point the tracer at a virtual clock (e.g. ``lambda: engine.now``)."""
        self._clock = clock

    # -- recording -------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span; close it by exiting the ``with`` block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent, attrs or None))
        self._stack.append(index)
        return _SpanHandle(self, index)

    def wrap(self, name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        """``call``, run inside a ``name`` span every time it is called
        (the span closes when ``call`` raises, too)."""

        def traced(*args: Any) -> Any:
            with self.span(name):
                return call(*args)

        return traced

    def event(self, name: str, when: Optional[int] = None, **attrs: Any) -> None:
        """Record a zero-width span at ``when`` (default: the clock now)."""
        at = self._clock() if when is None else when
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, at, parent, attrs or None)
        span.end_us = at
        self.spans.append(span)

    def _close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise TraceError(
                "span %d closed out of order (open stack: %r)"
                % (index, self._stack)
            )
        self._stack.pop()
        self.spans[index].end_us = self._clock()

    # -- export ----------------------------------------------------------
    def to_list(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def dumps(self) -> str:
        """Deterministic JSON trace (creation order, sorted attrs)."""
        return json.dumps(
            {"spans": self.to_list()},
            sort_keys=True,
            separators=(",", ": "),
            indent=1,
        )

    def validate(self) -> None:
        """Check the structural invariants: every span closed, children
        inside their parents, siblings non-overlapping in open order."""
        if self._stack:
            raise TraceError("trace has %d unclosed span(s)" % len(self._stack))
        last_sibling_end: Dict[int, int] = {}
        for index, span in enumerate(self.spans):
            if span.end_us < span.start_us:
                raise TraceError(
                    "span %d (%s) ends before it starts" % (index, span.name)
                )
            if span.parent >= 0:
                if span.parent >= index:
                    raise TraceError(
                        "span %d (%s) references a later parent" % (index, span.name)
                    )
                parent = self.spans[span.parent]
                if span.start_us < parent.start_us or span.end_us > parent.end_us:
                    raise TraceError(
                        "span %d (%s) escapes its parent %d (%s)"
                        % (index, span.name, span.parent, parent.name)
                    )
            previous_end = last_sibling_end.get(span.parent)
            if previous_end is not None and span.start_us < previous_end:
                raise TraceError(
                    "span %d (%s) overlaps its preceding sibling" % (index, span.name)
                )
            last_sibling_end[span.parent] = span.end_us


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class NullTracer(Tracer):
    """The default: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> Any:
        return _NULL_HANDLE

    def wrap(self, name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        return call

    def event(self, name: str, when: Optional[int] = None, **attrs: Any) -> None:
        pass

    def bind_clock(self, clock: Callable[[], int]) -> None:
        pass


#: Shared no-op tracer; safe to hand to any number of components.
NULL_TRACER = NullTracer()
