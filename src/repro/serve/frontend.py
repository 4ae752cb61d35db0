"""The asyncio serving front end: coalesce, admit, bridge, gather.

:class:`FrontEnd` accepts concurrent read requests (``query`` /
``select`` / ``count`` / ``exists`` / ``count_by`` / ``topk`` over
:class:`~repro.query.Pred` ASTs) and multiplexes them onto one or
more :class:`~repro.cluster.engine.ClusterEngine` instances without
blocking the event loop — every engine call crosses a bounded
worker-thread bridge (``loop.run_in_executor``), and the engines'
internal serve lock makes the concurrent bridge calls safe.

Two independently switchable mechanisms, each metered:

**Single-flight coalescing** (``coalesce=True``).  Requests are keyed
by ``(op, plan fingerprint, extras, mutation fence)`` — the
fingerprint is the stable content hash of the *normalized* predicate
(:meth:`Pred.fingerprint`), so syntactically different but equivalent
predicates (``a & b`` vs ``b & a``) coalesce.  The first request
(the *leader*) executes; concurrent duplicates (*followers*) await
the leader's future, bypass admission, count into
``serve.coalesced`` and tag the leader's trace.  When a flight had
followers, every caller (the leader too) receives its own copy of a
list or dict answer (``select``, ``count_by``, ``topk``), so callers
never share a mutable object.  The key embeds every
engine's monotone ``mutations`` counter, so the coalescing window
closes at each write: a request arriving after an update can never be
served a pre-update answer.

**Admission control** (``max_inflight``).  Leaders occupy execution
slots; when all slots are taken new leaders are shed *immediately*
(reject-newest) with a typed :class:`~repro.errors.Overloaded`.
Followers ride their leader's slot.  A per-request deadline
(``timeout_s``, per-call overridable) turns into a typed
:class:`~repro.errors.RequestTimeout`; the leader's work is shielded,
so a follower's timeout or disconnect never cancels the shared
execution.

Every admitted request resolves exactly once — a value or a typed
error — and ``drain()`` / ``close()`` settle all in-flight work, so
no future or trace span outlives the front end.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import (
    InvalidParameterError,
    Overloaded,
    QueryError,
    RequestTimeout,
)
from ..obs.stats import FrontEndStats
from ..query import Pred

__all__ = ["FrontEnd"]


def _swallow(future) -> None:
    # Retrieve the terminal state so abandoned shared futures never
    # log "exception was never retrieved".
    if not future.cancelled():
        future.exception()


class _Entry:
    """One single-flight group: the shared future + the leader's trace."""

    __slots__ = ("future", "trace", "followers")

    def __init__(self, future, trace) -> None:
        self.future = future
        self.trace = trace
        self.followers = 0


class FrontEnd:
    """Asyncio coordinator over one or more ``ClusterEngine`` s."""

    def __init__(
        self,
        engines,
        *,
        max_inflight: int = 64,
        max_workers: int | None = None,
        timeout_s: float | None = None,
        coalesce: bool = True,
        metrics=None,
        tracer=None,
    ) -> None:
        engines = (
            [engines] if not isinstance(engines, (list, tuple))
            else list(engines)
        )
        if not engines:
            raise InvalidParameterError("FrontEnd requires >= 1 engine")
        if max_inflight < 1:
            raise InvalidParameterError("max_inflight must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise InvalidParameterError("timeout_s must be > 0")
        self.engines = engines
        self.max_inflight = max_inflight
        self.timeout_s = timeout_s
        self.coalesce = coalesce
        self.metrics = metrics
        self.tracer = tracer
        self._pool = ThreadPoolExecutor(
            max_workers=(
                max_workers
                if max_workers is not None
                else min(8, 2 * len(engines) + 2)
            ),
            thread_name_prefix="repro-serve",
        )
        self._singleflight: dict[tuple, _Entry] = {}
        self._tasks: set[asyncio.Task] = set()
        self._engine_load = [0] * len(engines)
        self._closed = False
        self.requests = 0
        self.admitted = 0
        self.completed = 0
        self.coalesced = 0
        self.shed = 0
        self.timeouts = 0
        self.cancelled = 0
        self.errors = 0
        self.inflight = 0
        self.inflight_peak = 0

    # -- public ops ------------------------------------------------------

    async def query(self, pred: Pred, *, timeout_s: float | None = None):
        """A predicate scatter: the engine's ``RangeResult`` answer."""
        return await self._request(
            "query", pred, (), lambda e: e.query(pred), timeout_s
        )

    async def select(self, pred: Pred, *, timeout_s: float | None = None):
        """Matching global RIDs, materialized."""
        return await self._request(
            "select", pred, (), lambda e: e.select(pred), timeout_s
        )

    async def count(self, pred: Pred, *, timeout_s: float | None = None):
        return await self._request(
            "count", pred, (), lambda e: e.count(pred), timeout_s
        )

    async def exists(self, pred: Pred, *, timeout_s: float | None = None):
        return await self._request(
            "exists", pred, (), lambda e: e.exists(pred), timeout_s
        )

    async def count_by(
        self,
        group: str,
        pred: "Pred | None" = None,
        *,
        timeout_s: float | None = None,
    ):
        return await self._request(
            "count_by",
            pred,
            (group,),
            lambda e: e.count_by(group, pred),
            timeout_s,
        )

    async def topk(
        self,
        group: str,
        pred: "Pred | None" = None,
        k: int = 10,
        *,
        timeout_s: float | None = None,
    ):
        return await self._request(
            "topk",
            pred,
            (group, k),
            lambda e: e.topk(group, pred, k),
            timeout_s,
        )

    # -- the request path ------------------------------------------------

    def _key(self, op: str, pred: "Pred | None", extra: tuple):
        if not self.coalesce:
            return None
        engine = self.engines[0]
        fingerprint = (
            pred.fingerprint(
                lambda name: engine._meta(name).sigma,
                epoch_of=lambda name: engine._meta(name).epoch,
            )
            if pred is not None
            else None
        )
        # The mutation fence: any write to any engine changes the key,
        # so coalescing never spans a visible state change.
        fence = tuple(e.mutations for e in self.engines)
        return (op, fingerprint, extra, fence)

    async def _request(self, op, pred, extra, call, timeout_s):
        if self._closed:
            raise InvalidParameterError("this FrontEnd is closed")
        if pred is not None and not isinstance(pred, Pred):
            # Before the coalescing key, which fingerprints the pred.
            raise QueryError(
                f"expected a predicate, got {type(pred).__name__}; build "
                "one from repro.query (Range/Eq/In/And/Or/Not)"
            )
        self.requests += 1
        self._count("serve.requests")
        loop = asyncio.get_running_loop()
        # The key (and the coalesce lookup below) is computed
        # synchronously — no await — so every duplicate issued in one
        # event-loop tick deterministically joins the leader.
        key = self._key(op, pred, extra)
        if key is not None:
            entry = self._singleflight.get(key)
            if entry is not None:
                self.coalesced += 1
                entry.followers += 1
                self._count("serve.coalesced")
                if entry.trace is not None:
                    entry.trace.root.tags["coalesced"] = entry.followers
                return await self._await_result(op, entry, timeout_s)
        if self.inflight >= self.max_inflight:
            self.shed += 1
            self._count("serve.shed")
            raise Overloaded(self.inflight, self.max_inflight)
        self.inflight += 1
        self.inflight_peak = max(self.inflight_peak, self.inflight)
        self.admitted += 1
        self._count("serve.admitted")
        trace = (
            self.tracer.begin(f"serve.{op}", coalesce_key=key and key[1])
            if self.tracer is not None
            else None
        )
        future = loop.create_future()
        future.add_done_callback(_swallow)
        entry = _Entry(future, trace)
        if key is not None:
            self._singleflight[key] = entry
        task = loop.create_task(
            self._execute(key, future, trace, call)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await self._await_result(op, entry, timeout_s)

    async def _execute(self, key, future, trace, call) -> None:
        loop = asyncio.get_running_loop()
        index = min(
            range(len(self.engines)), key=lambda i: (self._engine_load[i], i)
        )
        self._engine_load[index] += 1
        engine = self.engines[index]
        try:
            value = await loop.run_in_executor(
                self._pool, lambda: call(engine)
            )
            error = None
        except BaseException as exc:  # typed errors ride the future
            value, error = None, exc
        finally:
            self._engine_load[index] -= 1
            self.inflight -= 1
            # Pop the single-flight entry *before* resolving, so a
            # request arriving after resolution starts a fresh flight
            # rather than adopting a settled one.
            if key is not None and self._singleflight.get(key) is not None:
                if self._singleflight[key].future is future:
                    del self._singleflight[key]
            if trace is not None:
                self.tracer.finish(trace)
        if error is not None:
            self.errors += 1
            self._count("serve.errors")
            future.set_exception(error)
        else:
            future.set_result(value)

    async def _await_result(self, op, entry, timeout_s):
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        t0 = time.monotonic()
        try:
            # Shield: a caller's timeout or disconnect abandons *its*
            # await, never the shared execution other callers ride.
            if timeout is None:
                value = await asyncio.shield(entry.future)
            else:
                value = await asyncio.wait_for(
                    asyncio.shield(entry.future), timeout
                )
        except asyncio.TimeoutError:
            self.timeouts += 1
            self._count("serve.timeouts")
            raise RequestTimeout(op, timeout) from None
        except asyncio.CancelledError:
            self.cancelled += 1
            self._count("serve.cancelled")
            raise
        self.completed += 1
        self._count("serve.completed")
        if self.metrics is not None:
            self.metrics.observe("serve.latency_s", time.monotonic() - t0)
        if entry.followers and isinstance(value, (list, dict)):
            # A shared answer: every caller gets its own copy, so one
            # caller mutating its select list or count_by dict cannot
            # change what the others see.  The follower count is final
            # here: the entry left the single-flight table before the
            # future resolved.
            value = value.copy()
        return value

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    # -- durability ------------------------------------------------------

    def _engine_dir(self, directory: str, index: int) -> str:
        """Where engine ``index`` checkpoints: the directory itself for
        a single-engine front end, ``engine-<i>/`` subdirectories for a
        fleet (the layout :meth:`restore` scans)."""
        if len(self.engines) == 1:
            return directory
        return os.path.join(directory, f"engine-{index:02d}")

    async def checkpoint(self, directory: str, **kwargs):
        """Checkpoint every engine, off the event loop; returns infos.

        Each engine checkpoints under its own serve lock (queries to
        the *other* engines proceed; the checkpointing one pauses its
        own writes, not its mmap'd reads), bridged through the same
        worker pool the request path uses.
        """
        if self._closed:
            raise InvalidParameterError("this FrontEnd is closed")
        loop = asyncio.get_running_loop()
        infos = []
        for index, engine in enumerate(self.engines):
            target = self._engine_dir(directory, index)
            infos.append(
                await loop.run_in_executor(
                    self._pool,
                    lambda e=engine, t=target: e.checkpoint(t, **kwargs),
                )
            )
        return infos

    @classmethod
    def restore(
        cls,
        directory: str,
        *,
        restore_kwargs: "dict | None" = None,
        **front_kwargs,
    ) -> "FrontEnd":
        """Cold-start a front end from a :meth:`checkpoint` directory.

        A root-level ``CURRENT`` means one engine; otherwise every
        ``engine-*/`` subdirectory restores one engine each (sorted,
        so replica indexes are stable).  ``restore_kwargs`` forwards
        to :func:`repro.persist.restore_cluster` per engine —
        multi-engine fleets are read replicas of one logical dataset,
        so they share whatever executor/advisor is passed there —
        while ``front_kwargs`` configures the front end itself.
        """
        from ..cluster import ClusterEngine
        from ..persist import read_current

        restore_kwargs = dict(restore_kwargs or {})
        if read_current(directory) is not None:
            sources = [directory]
        else:
            sources = sorted(
                os.path.join(directory, name)
                for name in os.listdir(directory)
                if name.startswith("engine-")
                and os.path.isdir(os.path.join(directory, name))
            )
            if not sources:
                raise InvalidParameterError(
                    f"{directory!r} holds neither a checkpoint nor "
                    "engine-*/ subdirectories"
                )
        engines = []
        try:
            for source in sources:
                engines.append(
                    ClusterEngine.restore(source, **restore_kwargs)
                )
        except BaseException:
            for engine in engines:
                engine.close()
            raise
        return cls(engines, **front_kwargs)

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> None:
        """Settle every in-flight execution (results *and* errors)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain, then release the worker-thread bridge.

        Idempotent; new requests raise once closing starts.
        """
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._pool.shutdown(wait=True)

    # -- introspection ---------------------------------------------------

    def stats(self) -> FrontEndStats:
        return FrontEndStats(
            requests=self.requests,
            admitted=self.admitted,
            completed=self.completed,
            coalesced=self.coalesced,
            shed=self.shed,
            timeouts=self.timeouts,
            cancelled=self.cancelled,
            errors=self.errors,
            inflight=self.inflight,
            inflight_peak=self.inflight_peak,
            max_inflight=self.max_inflight,
        )
