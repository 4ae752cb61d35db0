"""The slow-query log: a bounded ring of offending queries.

Queries whose elapsed time crosses ``threshold_s`` are captured with
their full trace (when tracing was on) and their
:class:`~repro.query.planner.PlanReport` (produced lazily — the report
is only built for queries that are actually slow, so fast queries pay
one float comparison).  The ring is bounded (``capacity``), newest
last, and everything in it is already plain JSON types.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

__all__ = ["SlowQuery", "SlowQueryLog"]


@dataclass(frozen=True)
class SlowQuery:
    """One captured slow query."""

    op: str
    elapsed_s: float
    threshold_s: float
    trace: dict | None = None
    report: dict | None = None

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "elapsed_s": self.elapsed_s,
            "threshold_s": self.threshold_s,
            "trace": self.trace,
            "report": self.report,
        }


class SlowQueryLog:
    """Threshold + ring buffer; attach one to an engine or cluster.

    ``observe`` is the single entry point the serving layers call at
    operation exit.  ``report_fn`` is a zero-argument callable built
    by the caller (typically closing over the predicate) and invoked
    *only* when the query is slow; any exception it raises is
    swallowed — slow-logging must never fail the query it describes.
    """

    def __init__(self, threshold_s: float, capacity: int = 64) -> None:
        self.threshold_s = threshold_s
        self._ring: deque[SlowQuery] = deque(maxlen=capacity)

    def observe(
        self,
        op: str,
        elapsed_s: float,
        trace=None,
        report_fn: Callable[[], object] | None = None,
    ) -> SlowQuery | None:
        """Record the query if it crossed the threshold.

        ``trace`` may be a :class:`~repro.obs.tracer.Trace`,
        :data:`~repro.obs.tracer.NULL_TRACE` (recorded as ``None``), an
        already-serialized dict, or ``None``.  Returns the captured
        record, or ``None`` for fast queries.
        """
        if elapsed_s < self.threshold_s:
            return None
        trace_dict: dict | None = None
        if trace is not None:
            trace_dict = trace if isinstance(trace, dict) else trace.to_dict()
        report_dict: dict | None = None
        if report_fn is not None:
            try:
                report = report_fn()
                if report is not None:
                    report_dict = (
                        report
                        if isinstance(report, dict)
                        else report.to_dict()
                    )
            except Exception:
                report_dict = None
        record = SlowQuery(
            op=op,
            elapsed_s=elapsed_s,
            threshold_s=self.threshold_s,
            trace=trace_dict,
            report=report_dict,
        )
        self._ring.append(record)
        return record

    def records(self) -> list[SlowQuery]:
        """The retained slow queries, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def to_dict(self) -> list[dict]:
        return [record.to_dict() for record in self._ring]
