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
``drop_caches``     flush engine LRU + every disk's block cache and gap memo
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
by the request round-trip.  Every cluster read speaks one op, ``fold``:
a whole shard-local compiled plan evaluated resident-side by the shard
engine's own ``QueryEngine._fold`` — the evaluator a single engine
serves its reads with — answered with a count, an exists-bit, a
``{group code: count}`` dict, or (in ``select`` mode) the shard's
sorted answer positions.  The leaf ops
``query`` (one range), ``query_multi`` (many ranges of this worker's
shards in one message) and ``leaves`` (many intervals of one shard's
column) have no caller in the cluster; they answer per-range reply
triples for direct users of the executor.

One wire shape serves traced and untraced queries alike: every
query-side message ends in a trace-id slot (``None`` when untraced),
and every per-shard reply is a triple ``(value, Snapshot, span dict
| None)`` — positions or a fold value, the I/O it cost, and the
shard op's span when a trace id rode the message.

Because the coordinator applies the *same* operations to its own
codes mirror in the same order (validating each there, so a refused
write never ships), and every build pins the backend the
coordinator's advisor already chose, the resident engine is the one
built index of the shard and stays bit-identical to what a serial
cluster builds: queries return identical positions and identical I/O
counter deltas, which is exactly what the conformance suite asserts.

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
from ..obs.tracer import NULL_TRACE
from ..query import Plan, resolve_universe

#: Fold payload: (mode, columns, leaves, root, group) — a shard-local
#: compiled plan (leaves already translated onto this shard's
#: alphabets; ``columns`` includes a ``count_by`` group column) plus
#: the mode :meth:`QueryEngine._fold` evaluates it in.  The fold value
#: is an int (count), bool (exists), ``{local group code: count}``
#: dict (count_by) or the sorted shard-local answer positions (select).


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
    trace: str | None, clock, kind: str,
) -> tuple[list[int], Snapshot, "dict | None"]:
    """One measured range read of a shard: positions, I/O, span.

    The body of a worker's ``query``/``leaves`` ops (span
    ``worker_query``).  The span's ``cache`` tag says where the answer
    came from: the engine LRU (``hit``) or the index (``miss``).
    """
    if trace is not None:
        t0 = clock()
        col = engine.column(name)
        # Peek: __contains__ skips the LRU counters, so tagging the
        # verdict never perturbs the stats the real lookup records.
        hit = (name, col.version, lo, hi) in engine.cache
    result, io = engine.query_measured(name, lo, hi)
    positions = result.positions()
    if trace is None:
        return positions, io, None
    return positions, io, shard_span(
        kind, trace, t0, clock(), uid, io, column=name, char_lo=lo,
        char_hi=hi, backend=col.spec.name, cache="hit" if hit else "miss",
        rids=len(positions),
    )


def fold_shard(
    engine: QueryEngine, uid: int, payload: tuple, trace: str | None,
    clock, kind: str,
) -> tuple[object, Snapshot, "dict | None"]:
    """One shard's fold: value, I/O, span.

    The body of a worker's ``fold`` op (span ``worker_fold``) and of a
    local executor's fold task (``shard_fold``), so the value a shard
    reports, and its measured I/O, is executor-independent.  It
    rebuilds the payload's plan and evaluates it with the shard
    engine's ``_fold``.  The I/O is each read column's device delta
    over the whole fold: only leaf reads touch a device inside it, so
    the sum equals one measurement per leaf, without two snapshots
    per leaf.  Workers do not hold the shared result cache: the
    coordinator consults it before submitting a fold and stores the
    value this returns (``ClusterEngine._submit_fold``).  Inside the
    fold only the engine's own LRU serves repeated leaves, so every
    executor reads the same bits.  The span's ``lru_hits``/
    ``lru_misses`` tags count what that LRU answered: every leaf,
    group leaves included, makes exactly one ``cache.get``, so the
    counters' delta over the fold is exact.
    """
    if trace is not None:
        t0 = clock()
        cache = engine.cache
        hits, misses = cache.hits, cache.misses
    mode, columns, leaves, root, group = payload
    plan = Plan(
        normalized=None,
        leaves=tuple(leaves),
        root=root,
        columns=tuple(columns),
    )
    devices = [engine.column(col).index.stats for col in columns]
    before = [device.snapshot() for device in devices]
    universe = resolve_universe(plan, lambda name: engine.column(name).n)
    value = engine._fold(mode, plan, universe, group, NULL_TRACE)
    if mode == "select":
        value = value.positions()
    io = Snapshot()
    for device, start in zip(devices, before):
        io = io + (device.snapshot() - start)
    if trace is None:
        return value, io, None
    return value, io, shard_span(
        kind, trace, t0, clock(), uid, io, mode=mode,
        lru_hits=cache.hits - hits, lru_misses=cache.misses - misses,
    )

#: Build payload: (cache_size, io_latency_s, [column payload, ...]).
#: Column payload: (name, codes, sigma, dynamism, expected_selectivity,
#: require_exact, require_delete, backend_name).


def _apply_latency(engine: QueryEngine, latency_s: float) -> None:
    for column in engine.columns.values():
        column.index.disk.latency_s = latency_s


def _add_column(engine: QueryEngine, column_payload: tuple) -> None:
    """Build one payload column into ``engine``."""
    (
        name,
        codes,
        sigma,
        dynamism,
        expected_selectivity,
        require_exact,
        require_delete,
        backend,
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


class ShardHost:
    """The resident runtimes of one worker process (testable in-process).

    ``clock`` times worker-side spans when a request carries a trace
    id; injectable so in-process tests get deterministic durations.
    Every query op answers with the reply triple(s) of
    :func:`fetch_range` / :func:`fold_shard`.
    """

    def __init__(self, clock=None) -> None:
        self.engines: dict[int, QueryEngine] = {}
        self.latencies: dict[int, float] = {}
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
        for column_payload in columns:
            _add_column(engine, column_payload)
        _apply_latency(engine, latency_s)
        self.engines[uid] = engine
        self.latencies[uid] = latency_s

    def retire(self, uid: int) -> None:
        self.engines.pop(uid, None)
        self.latencies.pop(uid, None)

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
        self, uid: int, path: str, cache_size: int, latency_s: float
    ) -> None:
        """Adopt a shard from its snapshot file — no index rebuild.

        The mirror image of :meth:`build` for restores: the engine is
        mmap-loaded from ``path`` (index pages fault in on demand), so
        bringing a worker back costs file opens, not construction.
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
            _add_column(engine, delta[1])
            _apply_latency(engine, self.latencies.get(uid, 0.0))
        elif op == "drop_column":
            engine.drop_column(delta[1])
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

    def query(
        self,
        uid: int,
        name: str,
        char_lo: int,
        char_hi: int,
        trace: str | None = None,
    ) -> tuple:
        """One measured range query: ``(positions, Snapshot, span)``."""
        return fetch_range(
            self._engine(uid), uid, name, char_lo, char_hi, trace,
            self.clock, "worker_query",
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
        """The pushdown op: evaluate a shard-local plan, ship its value.

        The whole plan executes against the resident engine and only
        the fold — count, existence bit, per-group counts, or the
        shard's select answer — crosses the pipe with its I/O snapshot
        and span.
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
    for col_name, count, sigma, dyn, sel, exact, delete, backend in metas:
        col_codes = [
            None if c < 0 else c for c in codes[offset : offset + count]
        ]
        offset += count
        columns.append(
            (col_name, col_codes, sigma, dyn, sel, exact, delete, backend)
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
            else:
                raise InvalidParameterError(f"unknown worker op {op!r}")
            conn.send(("ok", reply))
        except BaseException as exc:  # ship it back; the loop survives
            conn.send(("err", ship_exception(exc)))
