"""Observability: tracing, metrics, slow-query log, typed stats.

The cross-cutting layer the serving stack reports into.  See
``README.md`` in this package for the span model, the metric names
each component emits, and the enable/disable cost contract.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .slowlog import SlowQuery, SlowQueryLog
from .stats import (
    CacheTierStats,
    ColumnStats,
    EngineStats,
    FrontEndStats,
    TableStats,
)
from .tracer import NULL_TRACE, ManualClock, Span, Trace, Tracer

__all__ = [
    "NULL_TRACE",
    "CacheTierStats",
    "ColumnStats",
    "Counter",
    "EngineStats",
    "FrontEndStats",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "TableStats",
    "Trace",
    "Tracer",
]
