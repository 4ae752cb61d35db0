"""The asyncio serving tier: front-end coordination over clusters.

:class:`FrontEnd` is an asyncio coordinator that accepts concurrent
read requests and multiplexes them onto one or more
:class:`~repro.cluster.engine.ClusterEngine` s through a bounded
worker-thread bridge, with single-flight coalescing (keyed by the
normalized-plan fingerprint, fenced by the engines' mutation
counters), reject-newest admission control with typed
:class:`~repro.errors.Overloaded` / :class:`~repro.errors.\
RequestTimeout`, and per-outcome metrics.

See ``README.md`` in this package for architecture, knobs, and
failure modes.
"""

from .frontend import FrontEnd

__all__ = ["FrontEnd"]
