"""Pluggable execution of per-shard scatter tasks.

The scatter phase runs one independent task per shard.  How those
tasks execute is a deployment choice, not an algorithmic one, so the
cluster speaks one widened executor protocol with two dialects:

**Local executors** run arbitrary callables in the coordinating
process against the cluster's own shard engines:

* :class:`SerialExecutor` — one after another, inline.  The
  deterministic default; also what the stateful tests run under.
* :class:`ThreadedExecutor` — a persistent ``ThreadPoolExecutor``.
  Shard tasks touch disjoint per-shard engines and a lock-protected
  shared cache, so they are safe to interleave; with the disk latency
  model enabled (``Disk(latency_s=...)``) the per-transfer sleeps
  release the GIL and shard fetches genuinely overlap.

Both offer ``map(fn, items)`` (ordered, exception-propagating) and
``submit(fn, *args) -> future`` (the primitive the prefetching gather
pipelines on).  Every future answers ``result()``.

**Resident executors** host the shard state itself.
:class:`ProcessExecutor` keeps one *resident* ``QueryEngine`` per
shard inside a pool of worker processes: the cluster ships each
shard's build snapshot once (codes + the locally chosen backend, all
picklable), then keeps the replicas in sync by shipping routed
update/lifecycle *deltas* — never re-pickling engines per call — and
scatters queries as pipelined requests that return
``(positions, io Snapshot, span)`` triples, so per-worker I/O counters
aggregate back into cluster totals (the span slot is ``None`` unless
the request carried a trace id).  Workers answer requests in FIFO
order per pipe, which is what makes the cheap pipelined future
(:class:`_PipeFuture`) correct.

Pipes carry control messages and replies only.  Bulk request
payloads — build snapshots of ``SHM_MIN_CODES`` or more codes and
coalesced delta batches of ``SHM_MIN_DELTAS`` or more entries —
travel as flat ``int64`` arrays through
:mod:`multiprocessing.shared_memory` segments, so shipping a shard or
a write burst costs a few hundred pipe bytes of names and counts
regardless of payload size.  (Position replies stay pickled lists on
the pipe deliberately: pickle encodes small ints in ~3 bytes where an
``int64`` blob spends 8, and measured pack+unpack time favors the
list too.)
The coordinator owns every segment: each is registered in a
per-executor table and released when its request resolves (success,
error, or worker death all fire the same ``on_resolve`` hook), with
``close()`` and a ``weakref.finalize`` GC backstop sweeping anything
abandoned mid-stream.  A worker that dies mid-request surfaces as
:class:`~repro.errors.WorkerDiedError` carrying the failing shard
uid on every outstanding future — never a hang on the pipe.

The ``kind`` attribute ("local" / "resident") tells the cluster which
dialect to speak; ``supports_prefetch`` tells the gather whether
submitting a fetch ahead of the drain actually buys overlap.
"""

from __future__ import annotations

import multiprocessing
import pickle
import weakref
from array import array
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Iterable, TypeVar

from ..errors import InvalidParameterError, StorageError, WorkerDiedError
from ..iomodel.stats import Snapshot

T = TypeVar("T")
R = TypeVar("R")


class CompletedFuture:
    """An already-resolved future (inline execution, cache hits)."""

    __slots__ = ("_value", "_exc")

    def __init__(self, value=None, exc: BaseException | None = None) -> None:
        self._value = value
        self._exc = exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value


class MappedFuture:
    """A future post-processed by ``fn`` at resolution time.

    Used by the cluster to fold a worker's reply into the shared
    cache exactly when the gather consumes it.
    """

    __slots__ = ("_future", "_fn")

    def __init__(self, future, fn) -> None:
        self._future = future
        self._fn = fn

    def result(self):
        return self._fn(self._future.result())


class _SliceFuture:
    """One request's view of a grouped (multi-request) reply.

    A ``query_multi`` shipment resolves its single pipe future to a
    list of per-request replies; each slice future indexes into it,
    so callers see one future per request regardless of how requests
    were packed onto the wire.  A failed group re-raises the same
    exception from every slice.
    """

    __slots__ = ("_parent", "_index")

    def __init__(self, parent, index: int) -> None:
        self._parent = parent
        self._index = index

    def result(self):
        return self._parent.result()[self._index]


class SerialExecutor:
    """Run shard tasks inline, preserving order."""

    kind = "local"
    #: Inline submission materializes the result immediately, so
    #: fetching ahead buys nothing and would only widen the gather's
    #: memory bound.
    supports_prefetch = False

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]

    def submit(self, fn: Callable[..., R], *args) -> CompletedFuture:
        try:
            return CompletedFuture(fn(*args))
        except BaseException as exc:  # re-raised at result(), like a pool
            return CompletedFuture(exc=exc)

    def close(self) -> None:  # symmetric with the pooled executors
        pass


class ThreadedExecutor:
    """Run shard tasks on a persistent thread pool, preserving order."""

    kind = "local"
    supports_prefetch = True

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers <= 0:
            raise InvalidParameterError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        # list() propagates the first worker exception to the caller,
        # exactly like the serial path would.
        return list(self._pool.map(fn, items))

    def submit(self, fn: Callable[..., R], *args):
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# The process executor: worker-resident shard runtimes
# ----------------------------------------------------------------------


class _PipeFuture:
    """One outstanding request on a worker's pipe.

    Workers answer strictly in request order, so resolving a future
    means pumping replies off the pipe into the pending queue's heads
    until this one is reached.  ``result()`` re-raises any exception
    the worker shipped back.

    ``uid`` is the shard the request was addressed to (error
    attribution when the worker dies).  ``on_resolve`` fires exactly
    once when the future resolves — success, worker error, or worker
    death alike — which is what ties shared-memory segment lifetime to
    the request that shipped it: the pump path, the drain path, and
    the dead-worker path all go through :meth:`_resolve`.
    """

    __slots__ = ("_worker", "_done", "_value", "_exc", "uid", "on_resolve")

    def __init__(self, worker: "_Worker", uid: int | None = None) -> None:
        self._worker = worker
        self._done = False
        self._value = None
        self._exc: BaseException | None = None
        self.uid = uid
        self.on_resolve = None

    def _resolve(self, value, exc: BaseException | None) -> None:
        self._done = True
        self._value = value
        self._exc = exc
        if self.on_resolve is not None:
            callback, self.on_resolve = self.on_resolve, None
            callback()

    def result(self):
        if not self._done:
            self._worker.pump_until(self)
        if self._exc is not None:
            raise self._exc
        return self._value


class _Worker:
    """One worker process plus its request pipe and pending queue."""

    #: Cap on outstanding requests per pipe.  Requests are tiny, so a
    #: bounded pipeline can never fill the request pipe's OS buffer —
    #: which is what rules out the classic both-sides-blocked-in-send
    #: deadlock (the worker blocked sending a large reply while the
    #: coordinator keeps sending requests): past the cap the
    #: coordinator resolves the oldest reply first, draining the
    #: reply pipe before it sends again.
    MAX_PIPELINE = 64

    def __init__(self, ctx, index: int) -> None:
        # Import here so the parent module stays importable even if a
        # deployment strips the worker module.
        from .worker import shard_worker_main

        self.index = index
        self.dead = False
        #: Called once at the alive→dead transition (set by the owning
        #: executor) so deaths are countable in telemetry even when the
        #: pending queue was empty and no caller ever sees the error.
        self.on_death = None
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.pending: deque[_PipeFuture] = deque()
        self.uids: set[int] = set()
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn,),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    @staticmethod
    def _uid_of(message: tuple) -> int | None:
        # Every shard-addressed op carries its uid as the second
        # element; pool-wide ops ("stats", "close") do not.
        return message[1] if len(message) > 1 and isinstance(message[1], int) else None

    def _fail_all(self) -> None:
        """The pipe broke: fail every outstanding future, typed.

        Resolving (not abandoning) the pending queue matters twice
        over: callers get :class:`WorkerDiedError` with the shard uid
        they addressed instead of a hang, and each future's
        ``on_resolve`` still fires, releasing any shared-memory
        segment its request shipped.
        """
        first_death = not self.dead
        self.dead = True
        if first_death and self.on_death is not None:
            self.on_death(self)
        while self.pending:
            head = self.pending.popleft()
            head._resolve(None, WorkerDiedError(self.index, head.uid))

    def request(self, message: tuple) -> _PipeFuture:
        if self.dead:
            raise WorkerDiedError(self.index, self._uid_of(message))
        while len(self.pending) >= self.MAX_PIPELINE:
            self.pump_until(self.pending[0])  # keeps its value for result()
        try:
            self.conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            self._fail_all()
            raise WorkerDiedError(self.index, self._uid_of(message)) from None
        future = _PipeFuture(self, self._uid_of(message))
        self.pending.append(future)
        return future

    def call(self, message: tuple):
        return self.request(message).result()

    def send_silent(self, message: tuple) -> None:
        """Ship a no-reply op: one send, no future, no round-trip.

        Only for ops the worker loop explicitly answers with silence
        (``drop_caches_all``) — anything else would desynchronize the
        FIFO reply pipe.  Ordering still holds: the worker processes
        the silent op before any later request on the same pipe.
        """
        if self.dead:
            raise WorkerDiedError(self.index, self._uid_of(message))
        try:
            self.conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            self._fail_all()
            raise WorkerDiedError(self.index, self._uid_of(message)) from None

    def pump_until(self, future: _PipeFuture) -> None:
        while not future._done:
            if not self.pending:
                raise StorageError(
                    "worker reply pipe out of sync (future not pending)"
                )
            try:
                status, payload = self.conn.recv()
            except (EOFError, OSError):
                # Worker death mid-reply: every outstanding request —
                # this one included — resolves to a typed error.
                self._fail_all()
                return
            head = self.pending.popleft()
            if status == "ok":
                head._resolve(payload, None)
            else:
                head._resolve(None, payload)

    def drain(self) -> None:
        """Resolve every outstanding request, discarding results."""
        while self.pending:
            tail = self.pending[-1]
            try:
                tail.result()
            except BaseException:
                if not tail._done:
                    # Transport failure (dead worker, closed pipe):
                    # nothing further can resolve — stop, don't spin.
                    self.pending.clear()
                    return

    def shutdown(self, timeout: float) -> None:
        try:
            self.drain()
            self.conn.send(("close",))
            self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        finally:
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=timeout)
            self.conn.close()


def _release_segments(segments: dict) -> None:
    """Close and unlink every segment in the registry (idempotent)."""
    for name in list(segments):
        shm = segments.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # already gone
            pass


def _segment_releaser(segments: dict, name: str):
    """One-shot release of a single named segment from the registry.

    Holds the registry dict, never the executor, so a leaked closure
    cannot keep the executor alive past its GC finalizer.
    """

    def release() -> None:
        shm = segments.pop(name, None)
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass

    return release


def _pack_delta_batch(buffer: list[tuple]) -> tuple[tuple, array]:
    """Flatten coalescable deltas to (names, int64 quads).

    Each delta packs to four signed 64-bit ints:
    ``(0, name_index, ch, 0)`` for ``append`` and
    ``(1, name_index, pos, ch)`` for ``change``.  Raises ``TypeError``
    / ``OverflowError`` on values ``array('q')`` cannot hold — the
    caller falls back to the pickled batch.
    """
    names: list[str] = []
    name_idx: dict[str, int] = {}
    packed = array("q")
    for delta in buffer:
        idx = name_idx.setdefault(delta[1], len(names))
        if idx == len(names):
            names.append(delta[1])
        if delta[0] == "append":
            packed.extend((0, idx, delta[2], 0))
        else:
            packed.extend((1, idx, delta[2], delta[3]))
    return tuple(names), packed


def _pack_codes_flat(columns: list) -> tuple[array, list]:
    """Flatten build-payload column codes to one int64 array + metas.

    ``None`` holes encode as ``-1``; the metas keep every column field
    except the codes themselves, with the code *count* in their
    place.  Raises ``TypeError``/``OverflowError`` on values
    ``array('q')`` cannot hold — the caller falls back to the pickled
    build.
    """
    codes = array("q")
    metas = []
    for (name, col_codes, sigma, dyn, sel, exact, delete, backend,
         *rest) in columns:
        codes.extend(-1 if c is None else c for c in col_codes)
        metas.append(
            (name, len(col_codes), sigma, dyn, sel, exact, delete, backend,
             *rest)
        )
    return codes, metas


def _default_start_method() -> str:
    # fork is cheap and inherits the imported registry; fall back to
    # spawn where fork is unavailable (the worker module is fully
    # importable, so spawn works too, just slower per worker).
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessExecutor:
    """Worker processes hosting resident per-shard query engines.

    The cluster ships every shard's build *snapshot* (picklable codes
    plus the backend verdicts its own advisor already made) exactly
    once via :meth:`build_shard`, keeps the resident replica in sync
    with :meth:`apply_delta` as updates and lifecycle operations are
    routed, and scatters queries with :meth:`submit_query`, which
    pipelines on the worker's pipe and resolves to
    ``(positions, io Snapshot, span dict | None)``.  A cluster
    scatter ships all its misses through :meth:`submit_query_group`:
    one pipelined message per worker however many shards and plan
    leaves it covers.  (:meth:`submit_leaves`, one message per shard
    per column, has no caller in the library.)  Every ``submit_*``
    message carries a trace-id slot; a worker builds its span only
    when the slot holds an id.  Shards are assigned to
    the least loaded worker at build time and stay there — residency
    is the point: no engine state crosses a process boundary after
    the build.

    Routed update deltas are *batched*: consecutive same-shard
    ``append``/``change`` ops coalesce in a coordinator-side buffer
    and ship as one ``delta_batch`` pipe message, amortizing
    round-trips under write-heavy load.  Anything that must observe
    the updates — a query to that shard, a non-coalescable delta, a
    retire, :meth:`io_totals` — flushes the buffer *ahead of itself
    on the same FIFO pipe* (no blocking), so ordering is preserved
    exactly.  A worker-side failure of a batched delta surfaces at
    the next operation touching that worker (or at
    :meth:`flush_deltas`), not at the buffered call itself.

    One executor may serve several clusters concurrently because shard
    uids are process-unique.  ``close()`` (or the context manager)
    shuts the pool down; queries in flight are drained first.
    """

    kind = "resident"
    supports_prefetch = True

    #: Buffered coalescable deltas per shard auto-flush at this count
    #: (a bound on both message size and error-surfacing latency).
    DELTA_BATCH_MAX = 128
    #: The routed ops that may coalesce: pure single-position updates
    #: whose worker-side application order within one shard is all
    #: that matters.
    _COALESCABLE = ("append", "change")
    #: Build snapshots whose flattened code count reaches this ship
    #: their codes through a ``multiprocessing.shared_memory`` segment
    #: (one flat ``array('q')``, ``None`` holes as ``-1``) and send
    #: only name/offset metadata down the pipe; smaller builds are not
    #: worth a segment.
    SHM_MIN_CODES = 2048
    #: Coalesced delta batches at least this long ship flat through a
    #: segment instead of as a pickled list-of-tuples.
    SHM_MIN_DELTAS = 32

    def __init__(
        self,
        max_workers: int = 4,
        start_method: str | None = None,
        shutdown_timeout_s: float = 10.0,
        cache_store=None,
    ) -> None:
        if max_workers <= 0:
            raise InvalidParameterError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.shutdown_timeout_s = shutdown_timeout_s
        ctx = multiprocessing.get_context(
            start_method if start_method is not None else _default_start_method()
        )
        # Start the resource tracker *before* forking workers so they
        # inherit it: segment registrations then land in one shared
        # tracker, where the worker's attach-time register is an
        # idempotent set-add balanced by the coordinator's unlink.
        # (Spawned workers start their own tracker and balance their
        # attach registrations themselves — see worker._attach_segment.)
        resource_tracker.ensure_running()
        self._workers = [_Worker(ctx, i) for i in range(max_workers)]
        #: Worker processes that died with the pool open (pipe broke or
        #: EOF mid-reply).  Each death is counted exactly once at the
        #: alive→dead transition, and mirrored into the
        #: ``cluster.worker_deaths`` counter when :attr:`metrics` is
        #: attached — previously a death was only visible to whichever
        #: caller happened to hold the failing future.
        self.worker_deaths = 0
        for worker in self._workers:
            worker.on_death = self._note_worker_death
        self._by_uid: dict[int, _Worker] = {}
        self._pending_deltas: dict[int, list[tuple]] = {}
        self._batch_futures: list[_PipeFuture] = []
        self._closed = False
        #: Live shared-memory segments by name.  Each is released by
        #: the ``on_resolve`` of the request that shipped it; whatever
        #: remains is unlinked by :meth:`close`, with a GC finalizer
        #: as the last-resort backstop (the finalizer holds only the
        #: dict, never the executor).
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._segments_finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )
        #: Pipe messages sent per query-side op ("query" / "leaves" /
        #: "fold") — the accounting the aggregate-pushdown tests and
        #: benchmarks read to prove which wire shape a path used.
        #: Counts accumulate from construction (or the last
        #: :meth:`reset_op_counts`) and are **never reset implicitly**;
        #: ``ClusterEngine.stats()`` reports them verbatim.
        self.op_counts: Counter[str] = Counter()
        #: Optional :class:`repro.obs.MetricsRegistry`: delta-batch
        #: flush sizes are observed into ``delta.flush_size`` when
        #: attached (``None`` costs one attribute check per flush).
        self.metrics = None
        self.cache_store = None
        if cache_store is not None:
            self.attach_cache_store(cache_store)

    def reset_op_counts(self) -> None:
        """Zero :attr:`op_counts` — the *only* way it ever resets.

        Tests and benchmarks that assert on per-query wire shapes call
        this between measurements instead of poking the counter
        directly.
        """
        self.op_counts.clear()

    def _note_worker_death(self, worker: _Worker) -> None:
        self.worker_deaths += 1
        if self.metrics is not None:
            self.metrics.inc("cluster.worker_deaths")

    # ------------------------------------------------------------------
    # Shard residency
    # ------------------------------------------------------------------

    def _worker_of(self, uid: int) -> _Worker:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise InvalidParameterError(
                f"shard uid {uid} is not resident in this executor"
            ) from None

    def _new_segment(self, payload: bytes) -> shared_memory.SharedMemory:
        shm = shared_memory.SharedMemory(create=True, size=len(payload))
        shm.buf[: len(payload)] = payload
        self._segments[shm.name] = shm
        return shm

    def segment_count(self) -> int:
        """Live (not yet released) shared-memory segments — tests only."""
        return len(self._segments)

    def build_shard(self, uid: int, payload: tuple) -> None:
        """Ship one shard's build snapshot to the least loaded worker.

        Large snapshots (``SHM_MIN_CODES`` flattened codes or more) lay
        their codes flat in a shared-memory segment — one
        ``array('q')`` per build, ``None`` holes as ``-1`` — and the
        pipe carries only ``("build_shm", uid, segment, cache_size,
        latency_s, column metas)``.  The segment is released as soon
        as the worker's reply resolves, successful or not.
        """
        if self._closed:
            raise StorageError("executor is closed")
        if uid in self._by_uid:
            raise InvalidParameterError(f"shard uid {uid} already resident")
        worker = min(self._workers, key=lambda w: (len(w.uids), w.index))
        cache_size, latency_s, columns = payload
        total_codes = sum(len(column[1]) for column in columns)
        release = None
        message = ("build", uid, payload)
        if total_codes >= self.SHM_MIN_CODES:
            try:
                codes, metas = _pack_codes_flat(columns)
            except (TypeError, OverflowError):
                pass  # exotic codes: the pickled path still works
            else:
                shm = self._new_segment(codes.tobytes())
                release = _segment_releaser(self._segments, shm.name)
                message = (
                    "build_shm", uid, shm.name, cache_size, latency_s, metas,
                )
        try:
            future = worker.request(message)
        except BaseException:
            if release is not None:
                release()
            raise
        if release is not None:
            future.on_resolve = release
        future.result()
        worker.uids.add(uid)
        self._by_uid[uid] = worker

    def retire_shard(self, uid: int) -> None:
        """Drop a shard's resident engine (post split/merge/close)."""
        worker = self._worker_of(uid)
        self._flush_uid(uid)  # buffered updates apply before the retire
        del self._by_uid[uid]
        worker.uids.discard(uid)
        worker.call(("retire", uid))

    # ------------------------------------------------------------------
    # Durable persistence (repro.persist)
    # ------------------------------------------------------------------

    def snap_shard(self, uid: int, path: str) -> int:
        """Have a shard's worker write its snapshot file to ``path``.

        The worker holds the built indexes (the coordinator's own
        copies are deferred), so the snapshot is written where the
        state lives and only the filename crosses the pipe.  Buffered
        deltas flush first — the snapshot is the acknowledged state.
        """
        worker = self._worker_of(uid)
        self._flush_uid(uid)
        return worker.call(("snap", uid, path))

    def rehydrate_shard(
        self,
        uid: int,
        path: str,
        cache_size: int,
        latency_s: float,
        epochs: dict,
    ) -> None:
        """Adopt one restored shard from its snapshot file — no rebuild.

        The restore-time mirror of :meth:`build_shard`: the least
        loaded worker mmap-loads the snapshot (index pages fault in on
        demand) instead of receiving codes and reconstructing indexes.
        """
        if self._closed:
            raise StorageError("executor is closed")
        if uid in self._by_uid:
            raise InvalidParameterError(f"shard uid {uid} already resident")
        worker = min(self._workers, key=lambda w: (len(w.uids), w.index))
        worker.call(("rehydrate", uid, path, cache_size, latency_s, epochs))
        worker.uids.add(uid)
        self._by_uid[uid] = worker

    def attach_cache_store(self, store) -> None:
        """Broadcast a durable result store to every worker.

        ``store`` must be picklable (``repro.persist.FileCacheStore``
        is by construction); workers consult it before decoding index
        pages and feed it on every miss.  Workers started later do not
        exist — the pool is fixed at construction — so one broadcast
        covers the executor's lifetime.
        """
        for worker in self._workers:
            worker.call(("cache_store", store))
        self.cache_store = store

    # ------------------------------------------------------------------
    # Routed deltas (batched)
    # ------------------------------------------------------------------

    def apply_delta(self, uid: int, delta: tuple) -> None:
        """Apply (or buffer) one routed delta for a resident shard.

        ``append``/``change`` deltas coalesce per shard and ship later
        as one ``delta_batch`` message; every other delta first
        flushes that shard's buffer ahead of itself, then ships as its
        own pipelined message — per-shard order is exact (one FIFO
        pipe per worker), and nothing blocks on the reply, so a
        broadcast delta (``drop_caches``, ``set_latency``) costs one
        send per shard instead of one round-trip per shard.  Worker
        errors surface at the next harvest point: a later
        ``apply_delta``, :meth:`flush_deltas`, or a blocking call on
        the same shard.
        """
        worker = self._worker_of(uid)
        self._harvest_batches()
        if delta[0] in self._COALESCABLE:
            buffer = self._pending_deltas.setdefault(uid, [])
            buffer.append(delta)
            if len(buffer) >= self.DELTA_BATCH_MAX:
                self._flush_uid(uid)
            return
        self._flush_uid(uid)
        self._batch_futures.append(worker.request(("delta", uid, delta)))

    def pending_delta_count(self, uid: int) -> int:
        """Buffered (not yet shipped) coalescable deltas for one shard."""
        return len(self._pending_deltas.get(uid, ()))

    def _flush_uid(self, uid: int) -> None:
        """Ship a shard's buffered deltas as one pipelined message.

        Batches of ``SHM_MIN_DELTAS`` or more flatten into a
        shared-memory segment (released when the shipment's reply
        resolves — including via the drain path and the dead-worker
        path); shorter batches stay pickled on the pipe.
        """
        buffer = self._pending_deltas.pop(uid, None)
        if not buffer:
            return
        if self.metrics is not None:
            self.metrics.observe("delta.flush_size", len(buffer))
        worker = self._by_uid[uid]
        release = None
        if len(buffer) == 1:
            message = ("delta", uid, buffer[0])
        else:
            message = ("delta_batch", uid, buffer)
            if len(buffer) >= self.SHM_MIN_DELTAS:
                try:
                    names, packed = _pack_delta_batch(buffer)
                except (TypeError, OverflowError):
                    pass  # non-int64 payloads: pickled batch fallback
                else:
                    shm = self._new_segment(packed.tobytes())
                    release = _segment_releaser(self._segments, shm.name)
                    message = (
                        "delta_batch_shm", uid, shm.name, len(buffer), names,
                    )
        try:
            future = worker.request(message)
        except BaseException:
            if release is not None:
                release()
            raise
        if release is not None:
            future.on_resolve = release
        self._batch_futures.append(future)

    def _harvest_batches(self, block: bool = False) -> None:
        """Surface errors from already-answered batch shipments.

        With ``block=True`` every outstanding shipment is resolved
        (waiting for replies); otherwise only those the pipe pump has
        already answered are checked — no extra round-trips.
        """
        pending = self._batch_futures
        i = 0
        while i < len(pending):
            future = pending[i]
            if block or future._done:
                pending.pop(i)
                future.result()
            else:
                i += 1

    def flush_deltas(self) -> None:
        """Ship and confirm every buffered delta (blocking)."""
        for uid in list(self._pending_deltas):
            self._flush_uid(uid)
        self._harvest_batches(block=True)

    def drop_caches_all(self) -> None:
        """Flush every resident engine's caches: one message per worker.

        Buffered deltas flush first (per-shard order), then each
        *worker* gets a single fire-and-forget ``drop_caches_all`` —
        a cluster-wide cache drop costs ``max_workers`` sends (no
        replies, no round-trips), not one round-trip per shard.  The
        FIFO pipe still orders the drop ahead of any later query.
        """
        for uid in list(self._pending_deltas):
            self._flush_uid(uid)
        self._harvest_batches()
        for worker in self._workers:
            if worker.uids:
                worker.send_silent(("drop_caches_all",))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def submit_query(
        self,
        uid: int,
        name: str,
        char_lo: int,
        char_hi: int,
        trace: str | None = None,
    ) -> _PipeFuture:
        """Pipeline one range query; resolves to a reply triple.

        The triple is ``(positions, Snapshot, span dict | None)``.  Any
        buffered deltas for the shard are flushed ahead of the query
        on the same FIFO pipe, so the reply reflects them.  With a
        ``trace`` id the worker times its shard-local execution and
        fills the span slot, so the coordinator can stitch the
        worker-side span into the query's trace.
        """
        worker = self._worker_of(uid)
        self._flush_uid(uid)
        self.op_counts["query"] += 1
        return worker.request(("query", uid, name, char_lo, char_hi, trace))

    def submit_query_group(
        self,
        requests: "list[tuple[int, str, int, int]]",
        trace: str | None = None,
    ) -> list:
        """Pipeline many shard range queries, one message per *worker*.

        ``requests`` is ``[(uid, name, char_lo, char_hi), ...]``; the
        return value is a list of futures aligned with it, each
        resolving to the reply triple :meth:`submit_query` produces.
        Requests for shards resident in the same worker ride a single
        ``query_multi`` pipe message (answered as a list, fanned back
        out through per-request views), so a 16-shard scatter over 4
        workers costs 4 round-trips instead of 16.  A worker error
        fails every request in its group — the scatter's first-error
        drain treats that exactly like a lone failed shard.
        """
        groups: dict[int, list[int]] = {}
        for i, (uid, *_rest) in enumerate(requests):
            worker = self._worker_of(uid)
            self._flush_uid(uid)
            groups.setdefault(worker.index, []).append(i)
        futures: list = [None] * len(requests)
        for index, slots in groups.items():
            worker = self._workers[index]
            if len(slots) == 1:
                i = slots[0]
                self.op_counts["query"] += 1
                futures[i] = worker.request(("query", *requests[i], trace))
                continue
            batch = [requests[i] for i in slots]
            self.op_counts["query"] += 1
            parent = worker.request(
                ("query_multi", batch[0][0], batch, trace)
            )
            for pos, i in enumerate(slots):
                futures[i] = _SliceFuture(parent, pos)
        return futures

    def submit_leaves(
        self,
        uid: int,
        name: str,
        intervals: list[tuple[int, int]],
        trace: str | None = None,
    ) -> _PipeFuture:
        """Pipeline many intervals of one shard's column, one message.

        Resolves to a list of reply triples, one per interval in order.
        """
        worker = self._worker_of(uid)
        self._flush_uid(uid)
        self.op_counts["leaves"] += 1
        return worker.request(("leaves", uid, name, list(intervals), trace))

    def submit_fold(
        self, uid: int, payload: tuple, trace: str | None = None
    ) -> _PipeFuture:
        """Pipeline one aggregate fold: a shard-local plan, one number.

        Resolves to ``(value, Snapshot, span dict | None)`` where
        ``value`` is the shard's count, existence bit, or
        ``{group code: count}`` dict — the pushdown op that keeps RID
        lists off the pipe entirely.
        """
        worker = self._worker_of(uid)
        self._flush_uid(uid)
        self.op_counts["fold"] += 1
        return worker.request(("fold", uid, payload, trace))

    def query_shard(
        self, uid: int, name: str, char_lo: int, char_hi: int
    ) -> tuple[list[int], Snapshot]:
        """One untraced range query, waited for: ``(positions, io)``."""
        future = self.submit_query(uid, name, char_lo, char_hi)
        positions, io, _ = future.result()
        return positions, io

    def io_totals(self) -> Snapshot:
        """Aggregate every worker's resident-engine I/O counters."""
        for uid in list(self._pending_deltas):
            self._flush_uid(uid)  # totals must reflect buffered updates
        futures = [w.request(("stats",)) for w in self._workers]
        total = Snapshot()
        for future in futures:
            total = total + future.result()
        self._harvest_batches()
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.flush_deltas()
        except Exception:  # shutdown is best-effort past this point
            pass
        for worker in self._workers:
            worker.shutdown(self.shutdown_timeout_s)
        self._by_uid.clear()
        self._pending_deltas.clear()
        self._batch_futures.clear()
        # Shutdown drained every pipe, so per-request releases have
        # already fired; whatever segments remain (abandoned streams,
        # dead workers killed before replying) are unlinked here.
        _release_segments(self._segments)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ship_exception(exc: BaseException) -> BaseException:
    """The exception to send over a worker pipe (picklable or proxied)."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return StorageError(f"{type(exc).__name__}: {exc}")
