"""The worker-process half of :class:`~repro.cluster.executor.\
ProcessExecutor`: resident shard runtimes.

Each worker process owns a set of shard runtimes — one
:class:`~repro.engine.engine.QueryEngine` per resident shard uid —
built *once* from the picklable snapshot the coordinator ships
(``("build", uid, payload)``) and thereafter kept in sync by routed
deltas, never by re-pickling engine state:

==================  ====================================================
delta               effect on the resident engine
==================  ====================================================
``append``          ``engine.append(name, ch)`` (LRU invalidation included)
``change``          ``engine.change(name, pos, ch)``
``delete``          ``engine.delete(name, pos)`` (mirror compaction too)
``set_contract``    re-declare a column's dynamism / delete requirement
``rebuild``         swap the column onto a named backend, in place
``add_column``      build one more column into the resident engine
``drop_column``     drop a column
``set_latency``     (re)apply the disk latency model to every column
``drop_caches``     flush engine LRU + every disk's block cache
==================  ====================================================

Coalescable deltas (``append``/``change``) may arrive wholesale as one
``("delta_batch", uid, [delta, ...])`` message — the coordinator's
round-trip amortization under write-heavy load — applied strictly in
list order.

Bulk payloads ride shared memory, not the pipe.  A large build
arrives as ``("build_shm", uid, segment, cache_size, latency_s,
metas)`` — the codes of every column packed as one flat ``int64``
array in a :mod:`multiprocessing.shared_memory` segment (``None``
encoded as ``-1``), with only names and per-column counts on the
pipe; a long coalescable batch arrives as ``("delta_batch_shm", uid,
segment, count, names)`` with each delta packed as an ``int64`` quad.
The worker attaches, copies the payload out, closes its mapping, and
replies — the coordinator owns the unlink, tied to the resolution of
the request that shipped the segment, so segment lifetime is bounded
by the request round-trip.  The query side speaks four ops: ``query`` (one range),
``query_multi`` (a grouped scatter: every range the coordinator wants
from this worker's shards in one message — every leaf of every shard
a plan scatter reaches here — answered as a list of per-request
replies in order),
``leaves`` (every interval of one shard's column, answered as a list
of per-interval replies in order), and ``fold`` (the
aggregate-pushdown op: a whole shard-local compiled plan evaluated
resident-side in cardinality space, answered with a count, exists-bit
or ``{group code: count}`` — positions never cross the pipe).

One wire shape serves traced and untraced queries alike: every
query-side message ends in a trace-id slot (``None`` when untraced),
and every per-shard reply is a triple ``(value, Snapshot, span dict
| None)`` — positions or a fold value, the I/O it cost, and the
shard op's span when a trace id rode the message.

Because the coordinator applies the *same* operations to its own
replica in the same order, and every build pins the backend the
coordinator's advisor already chose, the resident engine is a
bit-identical twin: queries return identical positions and identical
I/O counter deltas, which is exactly what the conformance suite
asserts.

The wire protocol is strict request/reply in FIFO order — one
``("ok", payload)`` or ``("err", exception)`` per request — which is
what lets the parent pipeline many queries down one pipe and resolve
them with a plain deque.
"""

from __future__ import annotations

import time
from array import array
from multiprocessing import resource_tracker, shared_memory

from ..engine.engine import QueryEngine
from ..engine.registry import get_spec
from ..errors import InvalidParameterError
from ..iomodel.stats import Snapshot
from ..query import (
    Plan,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    resolve_universe,
)
from .cache import shared_key

#: Fold payload: (mode, columns, leaves, root, group) — a shard-local
#: compiled plan (leaves already translated onto this shard's
#: alphabets) plus the aggregate mode to fold it in.  The fold value
#: is an int (count), bool (exists) or ``{local group code: count}``
#: dict — never a RID list.


def evaluate_shard_fold(
    engine: QueryEngine, payload: tuple
) -> tuple["int | bool | dict[int, int]", Snapshot]:
    """Fold one shard-local plan in cardinality space, resident-side.

    Shared verbatim by every fold — :func:`fold_shard` under any
    executor, and hot-shard replicas — so the aggregate a shard
    reports, value *and* measured I/O, is executor-independent.
    Workers do not hold the shared result cache: the coordinator
    consults it before submitting a fold and stores the value this
    returns (``ClusterEngine._submit_fold``).  Inside the fold only
    the engine's own LRU serves repeated leaves, so every executor
    reads the same bits.
    """
    mode, columns, leaves, root, group = payload
    plan = Plan(
        normalized=None,
        leaves=tuple(leaves),
        root=root,
        columns=tuple(columns),
    )
    universe = resolve_universe(plan, lambda name: engine.column(name).n)
    total = Snapshot()

    def fetch(col: str, lo: int, hi: int):
        nonlocal total
        result, io = engine.query_measured(col, lo, hi)
        total = total + io
        return result

    costs = engine._leaf_costs(plan)
    if mode == "count":
        value: "int | bool | dict[int, int]" = evaluate_count(
            plan, fetch, universe, costs
        )
    elif mode == "exists":
        value = evaluate_exists(plan, fetch, universe, costs)
    elif mode == "count_by":
        group_col = engine.column(group)
        start = None

        def group_fetch(code: int):
            # The group leaves come after the predicate has folded, and
            # counting reads nothing, so one delta from the first leaf
            # to the end of the fold is their per-leaf sum, without
            # two snapshots per leaf.
            nonlocal start
            if start is None:
                start = group_col.index.stats.snapshot()
            return engine.query(group, code, code)

        value = evaluate_count_by(
            plan, fetch, universe, group_col.distinct_codes(), group_fetch,
            costs,
        )
        if start is not None:
            total = total + (group_col.index.stats.snapshot() - start)
    else:
        raise InvalidParameterError(f"unknown fold mode {mode!r}")
    return value, total


# ----------------------------------------------------------------------
# The shard-op bodies
# ----------------------------------------------------------------------
#
# One body per shard op, shared by the worker's ops and the cluster's
# local-executor tasks, so a read costs the same bits wherever it runs
# and whether or not it is traced.  Each returns the reply triple
# ``(value, Snapshot, span dict | None)``; ``trace`` is the trace id
# (``None`` untraced) and is tested only to decide whether to build
# the span, so an untraced op reads no clock and formats no tag.


def shard_span(
    name: str, trace: str, t0: float, t1: float, uid: int,
    io: Snapshot, **tags,
) -> dict:
    """One shard op's span, as the plain dict its reply carries.

    The ``bits_read`` tag is taken from the *same* :class:`Snapshot`
    the reply ships back — the one the coordinator folds into
    ``scatter_io`` — so summed span bits always equal the scatter
    accounting exactly.
    """
    tags.update(
        trace_id=trace, shard_uid=uid, bits_read=io.bits_read,
        reads=io.reads,
    )
    return {"name": name, "t0": t0, "t1": t1, "tags": tags, "children": []}


def fetch_range(
    engine: QueryEngine, uid: int, name: str, lo: int, hi: int,
    trace: str | None, clock, kind: str, store=None, key=None,
) -> tuple[list[int], Snapshot, "dict | None"]:
    """One measured range read of a shard: positions, I/O, span.

    The body of a worker's ``query``/``leaves`` ops (span
    ``worker_query``) and of a local executor's fetch task
    (``leaf_fetch``).  With a durable ``store`` and its ``key``, a
    stored answer is served for zero bits and a decoded one feeds the
    store.  The span's ``cache`` tag says where the answer came from:
    ``store``, the engine LRU (``hit``), or the index (``miss``).
    """
    if trace is not None:
        t0 = clock()
        col = engine.column(name)
        # Peek: __contains__ skips the LRU counters, so tagging the
        # verdict never perturbs the stats the real lookup records.
        hit = (name, col.version, lo, hi) in engine.cache
        cache = "hit" if hit else "miss"
    stored = store.get(key) if key is not None else None
    if stored is not None:
        positions, io, cache = list(stored), Snapshot(), "store"
    else:
        result, io = engine.query_measured(name, lo, hi)
        positions = result.positions()
        if key is not None:
            store.put(key, positions)
    if trace is None:
        return positions, io, None
    return positions, io, shard_span(
        kind, trace, t0, clock(), uid, io, column=name, char_lo=lo,
        char_hi=hi, backend=col.spec.name, cache=cache,
        rids=len(positions),
    )


def fold_shard(
    engine: QueryEngine, uid: int, payload: tuple, trace: str | None,
    clock, kind: str,
) -> tuple["int | bool | dict[int, int]", Snapshot, "dict | None"]:
    """One shard's aggregate fold: value, I/O, span.

    The body of a worker's ``fold`` op (span ``worker_fold``) and of a
    local executor's fold task (``shard_fold``).
    """
    if trace is not None:
        t0 = clock()
    value, io = evaluate_shard_fold(engine, payload)
    if trace is None:
        return value, io, None
    return value, io, shard_span(
        kind, trace, t0, clock(), uid, io, mode=payload[0]
    )

#: Build payload: (cache_size, io_latency_s, [column payload, ...]).
#: Column payload: (name, codes, sigma, dynamism, expected_selectivity,
#: require_exact, require_delete, backend_name[, epoch]).  The optional
#: trailing epoch is the column's cluster-level incarnation stamp —
#: durable cache-store keys carry it; payloads without one (older
#: producers, tests) default to "" and simply never match a store.


def _apply_latency(engine: QueryEngine, latency_s: float) -> None:
    for column in engine.columns.values():
        column.index.disk.latency_s = latency_s


def _add_column(engine: QueryEngine, column_payload: tuple) -> str:
    """Build one payload column into ``engine``; returns its epoch."""
    (
        name,
        codes,
        sigma,
        dynamism,
        expected_selectivity,
        require_exact,
        require_delete,
        backend,
        *rest,
    ) = column_payload
    engine.add_column(
        name,
        codes,
        sigma,
        dynamism=dynamism,
        expected_selectivity=expected_selectivity,
        require_exact=require_exact,
        require_delete=require_delete,
        backend=backend,
    )
    return rest[0] if rest else ""


class ShardHost:
    """The resident runtimes of one worker process (testable in-process).

    ``clock`` times worker-side spans when a request carries a trace
    id; injectable so in-process tests get deterministic durations.
    Every query op answers with the reply triple(s) of
    :func:`fetch_range` / :func:`fold_shard`.
    """

    def __init__(self, clock=None, cache_store=None) -> None:
        self.engines: dict[int, QueryEngine] = {}
        self.latencies: dict[int, float] = {}
        #: Per-shard column epochs (incarnation stamps): durable
        #: cache-store keys carry them, so a re-added or re-epoched
        #: column can never read a predecessor's persisted results.
        self.epochs: dict[int, dict[str, str]] = {}
        #: Optional durable result store
        #: (:class:`repro.persist.FileCacheStore` or any
        #: :class:`~repro.cluster.cache.CacheStore`): consulted on
        #: every range read *before* decoding index pages, fed on
        #: every miss.  Version-stamped keys make staleness impossible
        #: — a mutated column's old entries simply stop matching.
        self.cache_store = cache_store
        self.clock = clock if clock is not None else time.monotonic

    def _engine(self, uid: int) -> QueryEngine:
        try:
            return self.engines[uid]
        except KeyError:
            raise InvalidParameterError(
                f"shard uid {uid} is not resident in this worker"
            ) from None

    def build(self, uid: int, payload: tuple) -> None:
        cache_size, latency_s, columns = payload
        engine = QueryEngine(cache_size=cache_size)
        epochs: dict[str, str] = {}
        for column_payload in columns:
            epochs[column_payload[0]] = _add_column(engine, column_payload)
        _apply_latency(engine, latency_s)
        self.engines[uid] = engine
        self.latencies[uid] = latency_s
        self.epochs[uid] = epochs

    def retire(self, uid: int) -> None:
        self.engines.pop(uid, None)
        self.latencies.pop(uid, None)
        self.epochs.pop(uid, None)

    def snap(self, uid: int, path: str) -> int:
        """Write one resident shard's snapshot to ``path`` (checkpoint).

        The worker holds the *built* indexes (the coordinator's are
        deferred under a resident executor), so it writes the snapshot
        — over the shared filesystem — and the restore's rehydrate op
        gets real index pages to mmap rather than a rebuild.  Returns
        the column count as a cheap success token.
        """
        from ..persist.snapshot import write_shard_snapshot  # late: cycle

        engine = self._engine(uid)
        write_shard_snapshot(path, engine)
        return len(engine.columns)

    def rehydrate(
        self,
        uid: int,
        path: str,
        cache_size: int,
        latency_s: float,
        epochs: dict,
    ) -> None:
        """Adopt a shard from its snapshot file — no index rebuild.

        The mirror image of :meth:`build` for restores: the engine is
        mmap-loaded from ``path`` (index pages fault in on demand), so
        bringing a worker back costs file opens, not construction.
        ``epochs`` carries the restored columns' incarnation stamps so
        durable cache-store entries from before the restart keep
        matching.
        """
        from ..persist.snapshot import load_shard_engine  # late: cycle

        engine = load_shard_engine(path, cache_size=cache_size)
        for column in engine.columns.values():
            # Not _apply_latency: that touches column.index.disk,
            # which would force-build any deferred column; the
            # column-level setter is deferred-safe.
            column.apply_latency(latency_s)
        self.engines[uid] = engine
        self.latencies[uid] = latency_s
        self.epochs[uid] = dict(epochs)

    def delta(self, uid: int, delta: tuple) -> None:
        engine = self._engine(uid)
        op = delta[0]
        if op == "append":
            engine.append(delta[1], delta[2])
        elif op == "change":
            engine.change(delta[1], delta[2], delta[3])
        elif op == "delete":
            engine.delete(delta[1], delta[2])
        elif op == "set_contract":
            _, name, dynamism, require_delete = delta
            column = engine.column(name)
            column.stats = column.stats.with_(
                dynamism=dynamism, require_delete=require_delete
            )
        elif op == "rebuild":
            _, name, backend = delta
            engine.column(name).rebuild(get_spec(backend))
            engine.cache.invalidate(lambda key: key[0] == name)
            _apply_latency(engine, self.latencies.get(uid, 0.0))
        elif op == "add_column":
            epoch = _add_column(engine, delta[1])
            self.epochs.setdefault(uid, {})[delta[1][0]] = epoch
            _apply_latency(engine, self.latencies.get(uid, 0.0))
        elif op == "drop_column":
            engine.drop_column(delta[1])
            self.epochs.get(uid, {}).pop(delta[1], None)
        elif op == "set_latency":
            self.latencies[uid] = delta[1]
            _apply_latency(engine, delta[1])
        elif op == "drop_caches":
            engine.cache.invalidate()
            for column in engine.columns.values():
                column.index.disk.flush_cache()
        else:
            raise InvalidParameterError(f"unknown shard delta {op!r}")

    def delta_batch(self, uid: int, deltas: list[tuple]) -> None:
        """Apply one coalesced shipment of routed deltas, in order."""
        for delta in deltas:
            self.delta(uid, delta)

    def drop_caches_all(self) -> None:
        """Flush every resident engine's caches, one broadcast message.

        The per-shard ``drop_caches`` delta stays for targeted drops;
        this is the whole-worker form, so a cluster-wide cache drop
        costs one message per worker instead of one per shard.
        """
        for engine in self.engines.values():
            engine.cache.invalidate()
            for column in engine.columns.values():
                column.index.disk.flush_cache()

    def _store_key(self, uid: int, engine: QueryEngine, name, lo, hi):
        """The durable store key of one range, or ``None`` for none."""
        if self.cache_store is None:
            return None
        epoch = self.epochs.get(uid, {}).get(name)
        if not epoch:
            # No incarnation stamp means no safe durable key: the
            # payload predates epochs, or the column is local-only.
            return None
        return shared_key(name, epoch, uid, engine.column(name).version, lo, hi)

    def query(
        self,
        uid: int,
        name: str,
        char_lo: int,
        char_hi: int,
        trace: str | None = None,
    ) -> tuple:
        """One measured range query: ``(positions, Snapshot, span)``."""
        engine = self._engine(uid)
        return fetch_range(
            engine, uid, name, char_lo, char_hi, trace, self.clock,
            "worker_query", self.cache_store,
            self._store_key(uid, engine, name, char_lo, char_hi),
        )

    def leaves(
        self,
        uid: int,
        name: str,
        intervals: list[tuple[int, int]],
        trace: str | None = None,
    ) -> list[tuple]:
        """Many measured queries of one column, one reply.

        One :meth:`query` reply triple per interval, in order.
        """
        return [
            self.query(uid, name, lo, hi, trace) for lo, hi in intervals
        ]

    def fold(
        self, uid: int, payload: tuple, trace: str | None = None
    ) -> tuple:
        """The aggregate-pushdown op: evaluate a plan, ship a number.

        The whole shard-local plan executes against the resident
        engine and only the fold — count, existence bit, or per-group
        counts — crosses the pipe with its I/O snapshot and span;
        positions never do.
        """
        return fold_shard(
            self._engine(uid), uid, payload, trace, self.clock,
            "worker_fold",
        )

    def io_totals(self) -> Snapshot:
        total = Snapshot()
        for engine in self.engines.values():
            for column in engine.columns.values():
                total = total + column.index.stats.snapshot()
        return total


# ----------------------------------------------------------------------
# Shared-memory transport (the worker half)
# ----------------------------------------------------------------------
#
# Large build snapshots and long delta batches arrive as flat
# ``array('q')`` payloads in a coordinator-created shared-memory
# segment; the pipe message carries only the segment name plus
# metadata.  The worker attaches read-only, copies what it needs, and
# closes immediately — the *coordinator* owns the unlink, tied to the
# resolution of the request that shipped the segment.


def _tracker_is_inherited() -> bool:
    # Forked workers inherit the coordinator's resource-tracker fd
    # (the executor starts the tracker before forking); spawned
    # workers import fresh and lazily start a tracker of their own.
    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None


#: Fixed at worker startup, before any segment is attached.
_SHARED_TRACKER = True


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the segment with the resource tracker
    # (CPython <= 3.12 behavior).  With the coordinator's inherited
    # tracker that register is an idempotent set-add balanced by the
    # coordinator's unlink, and unregistering here would strip the
    # parent's own registration.  A spawn-mode worker runs its own
    # tracker, which never sees the unlink — balance the attach
    # registration locally or the worker warns about (and
    # double-unlinks) segments it never owned.
    shm = shared_memory.SharedMemory(name=name)
    if not _SHARED_TRACKER:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


def _unpack_build_shm(
    name: str, cache_size: int, latency_s: float, metas: list
) -> tuple:
    """Rebuild a ``build`` payload from its flat-codes segment."""
    shm = _attach_segment(name)
    try:
        codes = array("q")
        total = sum(meta[1] for meta in metas)
        codes.frombytes(bytes(shm.buf[: total * codes.itemsize]))
    finally:
        shm.close()
    columns = []
    offset = 0
    for (col_name, count, sigma, dyn, sel, exact, delete, backend,
         *rest) in metas:
        col_codes = [
            None if c < 0 else c for c in codes[offset : offset + count]
        ]
        offset += count
        columns.append(
            (col_name, col_codes, sigma, dyn, sel, exact, delete, backend,
             *rest)
        )
    return (cache_size, latency_s, columns)


def _unpack_delta_batch_shm(
    name: str, count: int, names: tuple
) -> list[tuple]:
    """Rebuild a delta batch from its int64-quad segment."""
    shm = _attach_segment(name)
    try:
        packed = array("q")
        packed.frombytes(bytes(shm.buf[: count * 4 * packed.itemsize]))
    finally:
        shm.close()
    deltas: list[tuple] = []
    for i in range(0, 4 * count, 4):
        op, idx, a, b = packed[i : i + 4]
        if op == 0:
            deltas.append(("append", names[idx], a))
        else:
            deltas.append(("change", names[idx], a, b))
    return deltas


def shard_worker_main(conn) -> None:
    """The worker loop: one reply per request, FIFO, until ``close``."""
    from .executor import ship_exception  # late: avoid an import cycle

    global _SHARED_TRACKER
    _SHARED_TRACKER = _tracker_is_inherited()
    host = ShardHost()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died; nothing left to serve
            return
        op = message[0]
        if op == "drop_caches_all":
            # The one *silent* op: shipped fire-and-forget, so no
            # reply may be sent — not even an error — or the FIFO
            # reply pipe desynchronizes.  Cache drops cannot fail in
            # a way the coordinator could act on.
            try:
                host.drop_caches_all()
            except Exception:
                pass
            continue
        try:
            if op == "close":
                conn.send(("ok", None))
                return
            if op == "build":
                host.build(message[1], message[2])
                reply = None
            elif op == "build_shm":
                host.build(message[1], _unpack_build_shm(*message[2:]))
                reply = None
            elif op == "retire":
                host.retire(message[1])
                reply = None
            elif op == "delta":
                host.delta(message[1], message[2])
                reply = None
            elif op == "delta_batch":
                host.delta_batch(message[1], message[2])
                reply = None
            elif op == "delta_batch_shm":
                host.delta_batch(
                    message[1], _unpack_delta_batch_shm(*message[2:])
                )
                reply = None
            elif op == "query":
                reply = host.query(*message[1:])
            elif op == "query_multi":
                # message: (op, first_uid, [(uid, name, lo, hi), ...],
                # trace id); one reply per request, in order.
                reply = [
                    host.query(*request, message[3])
                    for request in message[2]
                ]
            elif op == "leaves":
                reply = host.leaves(*message[1:])
            elif op == "fold":
                reply = host.fold(*message[1:])
            elif op == "stats":
                reply = host.io_totals()
            elif op == "snap":
                reply = host.snap(message[1], message[2])
            elif op == "rehydrate":
                host.rehydrate(*message[1:])
                reply = None
            elif op == "cache_store":
                host.cache_store = message[1]
                reply = None
            else:
                raise InvalidParameterError(f"unknown worker op {op!r}")
            conn.send(("ok", reply))
        except BaseException as exc:  # ship it back; the loop survives
            conn.send(("err", ship_exception(exc)))
