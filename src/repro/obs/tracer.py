"""Per-query tracing: nested, timestamped spans across the stack.

One query becomes one :class:`Trace` — a tree of :class:`Span`\\ s
(``plan``, ``leaf_fetch``, ``cache_lookup``, ``scatter``,
``worker_query``/``worker_fold``, ``gather_merge``) rooted at the
operation span.  Spans carry a free-form ``tags`` dict (backend
verdicts, cache hit/miss, bits read), serialize to plain nested
dicts, and worker-side spans — built inside a resident process and
shipped back piggybacked on the existing reply tuples — are
:meth:`Trace.graft`\\ ed under the coordinator's ``scatter`` span at
gather time, so one stitched tree tells the whole story.

The design constraints, in order:

* **Zero cost disabled.**  With a ``Tracer(enabled=False)`` (or no
  tracer at all) an operation holds :data:`NULL_TRACE`, which has the
  :class:`Trace` surface but records nothing, allocates nothing and
  reads no clock.  Serving code is written once and emits into
  whatever trace it holds; only a shard-op body tests the trace id,
  to decide whether to build its span dict.  The engine's leaf-query
  fast path skips even that, guarding on the observer attributes.
* **Deterministic under test.**  The clock is injected
  (``time.monotonic`` by default); :class:`ManualClock` makes span
  durations and slow-query thresholds exact in tests.
* **No leakage.**  Grafting happens only at delivery points inside a
  live trace; spans arriving after :meth:`Tracer.finish` (abandoned
  pipelined replies from an early-closed streaming gather) are
  dropped and counted in :attr:`Tracer.dropped_spans`, never attached
  to a later query's trace.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "NULL_TRACE",
    "ManualClock",
    "ObservedOps",
    "Span",
    "Trace",
    "Tracer",
]

#: Process-global trace-id source.  Ids are strings ("t0", "t1", ...)
#: so they pickle through the worker pipe protocol unchanged and tag
#: worker spans unambiguously even across tracer instances.
_trace_ids = itertools.count()

#: Tag value types :meth:`Span.to_dict` keeps as they are; any other
#: value (a predicate, say) is serialized by its ``repr``, so call
#: sites pass objects and pay for formatting only when tracing is on.
_PLAIN = (str, int, float, bool, type(None))


class ManualClock:
    """An injectable monotonic clock for deterministic tests.

    ``clock()`` returns the current reading; ``advance(dt)`` moves it
    forward.  Handing one to :class:`Tracer` (and, through it, to the
    engines' ``_observed`` timing) makes span durations and slow-query
    elapsed times exact instead of wall-clock noise.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class Span:
    """One timed phase of a query: name, window, tags, children."""

    __slots__ = ("name", "t0", "t1", "tags", "children")

    def __init__(
        self,
        name: str,
        t0: float = 0.0,
        t1: float | None = None,
        tags: dict | None = None,
    ) -> None:
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.tags: dict = tags if tags is not None else {}
        self.children: list[Span] = []

    @property
    def duration_s(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def tag(self, **tags) -> None:
        """Add tags discovered mid-flight (bits read, cache verdicts)."""
        self.tags.update(tags)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Plain nested dict: picklable, JSON-serializable, graftable."""
        return {
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "tags": {
                k: v if isinstance(v, _PLAIN) else repr(v)
                for k, v in self.tags.items()
            },
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            data["name"],
            data.get("t0", 0.0),
            data.get("t1"),
            dict(data.get("tags", {})),
        )
        span.children = [
            cls.from_dict(c) for c in data.get("children", ())
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_s:.6f}s, "
            f"tags={self.tags}, children={len(self.children)})"
        )


class Trace:
    """One query's span tree plus the nesting state that builds it."""

    __slots__ = ("trace_id", "tracer", "root", "finished", "_stack")

    def __init__(self, trace_id: str, tracer: "Tracer", root: Span) -> None:
        self.trace_id = trace_id
        self.tracer = tracer
        self.root = root
        self.finished = False
        self._stack: list[Span] = [root]

    # -- building ------------------------------------------------------

    @contextmanager
    def span(self, name: str, **tags):
        """Open a child span under the innermost open span.

        Yields the :class:`Span` so the body can :meth:`~Span.tag` it
        mid-flight (bits read, cache verdicts).  Timing comes from the
        tracer's injected clock.
        """
        clock = self.tracer.clock
        span = Span(name, t0=clock(), tags=tags)
        parent = self._stack[-1]
        parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.t1 = clock()
            self._stack.pop()

    def event(self, name: str, **tags) -> Span:
        """A zero-duration marker span (e.g. a delta-batch flush)."""
        now = self.tracer.clock()
        span = Span(name, t0=now, t1=now, tags=tags)
        self._stack[-1].children.append(span)
        return span

    def graft(
        self, span_dicts, parent: Span | None = None
    ) -> list[Span]:
        """Attach serialized spans (shard replies) under ``parent``.

        ``span_dicts`` holds :meth:`Span.to_dict` trees — exactly what
        a shard reply carries in its span slot.  ``None`` entries
        (replies that built no span) are skipped.  After the trace is
        finished (an early-closed streaming gather drained its
        abandoned replies), the spans are dropped and counted in
        :attr:`Tracer.dropped_spans` instead: stale replies must never
        stitch into a later query's trace.
        """
        spans = [Span.from_dict(d) for d in span_dicts if d is not None]
        if self.finished:
            self.tracer.dropped_spans += len(spans)
            return []
        target = parent if parent is not None else self._stack[-1]
        target.children.extend(spans)
        return spans

    # -- reading -------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        """Every span in the trace, pre-order."""
        return self.root.walk()

    def find(self, name: str) -> list[Span]:
        """All spans with the given name."""
        return [s for s in self.spans() if s.name == name]

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "finished": self.finished,
            "root": self.root.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = sum(1 for _ in self.spans())
        return f"Trace({self.trace_id!r}, {n} span(s))"


class _NullTrace:
    """The trace an operation holds while tracing is off.

    It has the :class:`Trace` surface serving code emits into —
    ``trace_id`` (``None``, so no shard op builds a span), ``span()``,
    ``event()`` and ``graft()`` — and records nothing, allocates
    nothing and reads no clock.  ``span()`` returns the null trace
    itself, a context manager whose ``tag()`` discards; ``to_dict()``
    is ``None``, so a slow-query record carries no trace.
    """

    __slots__ = ()
    trace_id = None

    def span(self, name: str, **tags) -> "_NullTrace":
        return self

    def __enter__(self) -> "_NullTrace":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def tag(self, **tags) -> None:
        return None

    def event(self, name: str, **tags) -> None:
        return None

    def graft(self, span_dicts, parent: Span | None = None) -> list:
        return []

    def to_dict(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_TRACE"


#: The one null trace (see :class:`_NullTrace`).
NULL_TRACE = _NullTrace()


class Tracer:
    """Produces, finishes, and retains per-query traces.

    ``enabled=False`` makes :meth:`begin` answer ``None``; the serving
    layers then hold :data:`NULL_TRACE` instead, so a disabled tracer
    records nothing.  The ``clock`` is injected for deterministic
    tests and shared with the engines' per-operation latency
    measurement.  Finished traces are kept in a bounded ring
    (``keep``), newest last.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
        keep: int = 64,
    ) -> None:
        self.enabled = enabled
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic
        )
        self.traces: deque[Trace] = deque(maxlen=keep)
        #: Spans that arrived for an already-finished trace (abandoned
        #: streaming-gather replies) — dropped, never misattached.
        self.dropped_spans = 0

    def begin(self, name: str, **tags) -> Trace | None:
        """Start a trace rooted at an operation span, or None if off."""
        if not self.enabled:
            return None
        trace_id = f"t{next(_trace_ids)}"
        root = Span(name, t0=self.clock(), tags=tags)
        root.tags["trace_id"] = trace_id
        return Trace(trace_id, self, root)

    def finish(self, trace: Trace) -> None:
        """Close a trace's root span and retain it in the ring."""
        if trace.finished:
            return
        trace.root.t1 = self.clock()
        trace.finished = True
        self.traces.append(trace)

    def last(self) -> Trace | None:
        """The most recently finished trace, if any."""
        return self.traces[-1] if self.traces else None


class ObservedOps:
    """Mixin framing a serving object's top-level operations.

    The host sets ``tracer``, ``metrics`` and ``slow_log`` (each may
    be ``None``); :meth:`_observed` then traces, meters and slow-logs
    every operation body it wraps.
    """

    _active_trace = NULL_TRACE
    _op_depth = 0

    @contextmanager
    def _observed(self, op: str, report_fn=None):
        """Frame one top-level operation; yields the trace to emit into.

        Only the *outermost* entry (depth 0) begins a trace, observes
        latency metrics, and feeds the slow-query log; nested entries
        (``topk`` → ``count_by``, predicate folds → leaf ``query``)
        yield the already-active trace so their spans stitch into one
        tree and nothing is double-counted.  With tracing off the
        trace is :data:`NULL_TRACE`.  ``report_fn`` builds the
        :class:`~repro.query.PlanReport` lazily — only queries that
        actually cross the slow threshold pay for it.
        """
        if self._op_depth:
            self._op_depth += 1
            try:
                yield self._active_trace
            finally:
                self._op_depth -= 1
            return
        tracer = self.tracer
        trace = NULL_TRACE
        clock = time.monotonic
        if tracer is not None:
            clock = tracer.clock
            if tracer.enabled:
                trace = tracer.begin(op)
        self._active_trace = trace
        self._op_depth = 1
        t0 = clock()
        try:
            yield trace
        finally:
            elapsed = clock() - t0
            self._op_depth = 0
            self._active_trace = NULL_TRACE
            if trace is not NULL_TRACE:
                tracer.finish(trace)
            metrics = self.metrics
            if metrics is not None:
                metrics.inc("query.count")
                metrics.observe("query.latency_s", elapsed)
            slow_log = self.slow_log
            if slow_log is not None:
                slow_log.observe(
                    op, elapsed, trace=trace, report_fn=report_fn
                )
