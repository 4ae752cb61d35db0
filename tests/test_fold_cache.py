"""Aggregate folds in the coordinator's shared result cache.

A shard's ``count``/``exists``/``count_by`` fold is cached under a fold
key with the leaf key's six slots: the shard uid, a digest of the
specialized plan and the read columns' epochs, and the sum of their
versions.  Its value is a list of ints, so any store holds it.  A
repeat at unchanged versions is answered at the coordinator — no pipe
message, no bits — while a write makes only its own shard fold again.
The fold entries live in the same tier as leaf answers, so a store
that caches nothing turns them off too, and ``drop_caches`` empties
them.
"""

import random
from collections import Counter

import pytest

from repro.cluster import (
    CacheStore,
    ClusterEngine,
    InMemorySharedCache,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    TTLStore,
)
from repro.cluster.cache import FOLDS
from repro.obs import ManualClock, MetricsRegistry, Tracer
from repro.persist import FileCacheStore
from repro.query import And, In, Range

SHARDS = 4
ROWS = 480
KINDS = ["serial", "threaded", "process"]


@pytest.fixture(scope="module")
def one_worker():
    with ProcessExecutor(max_workers=1) as pool:
        yield pool


@pytest.fixture
def executor_of(request):
    pools = []

    def make(kind):
        if kind == "process":
            return request.getfixturevalue("one_worker")
        if kind == "threaded":
            pools.append(ThreadedExecutor(max_workers=2))
            return pools[-1]
        return SerialExecutor()

    yield make
    for pool in pools:
        pool.close()


def codes(seed, sigma):
    rng = random.Random(seed)
    return [rng.randrange(sigma) for _ in range(ROWS)]


def make_cluster(executor=None, **kwargs):
    cluster = ClusterEngine(
        num_shards=SHARDS, executor=executor, drift_window=None, **kwargs
    )
    cluster.add_column("a", codes(1, 16), 16, dynamism="fully_dynamic")
    cluster.add_column("b", codes(2, 8), 8, dynamism="fully_dynamic")
    return cluster


PRED = And(Range("a", 3, 11), In("b", [1, 2, 5]))


def oracle(cluster, op):
    a = [c for s in cluster.shards for c in s.column("a").codes]
    b = [c for s in cluster.shards for c in s.column("b").codes]
    rows = [i for i in range(len(a)) if 3 <= a[i] <= 11 and b[i] in (1, 2, 5)]
    by_b = dict(Counter(b[i] for i in rows))
    return {
        "count": len(rows),
        "exists": bool(rows),
        "count_by": by_b,
        "topk": sorted(by_b.items(), key=lambda kv: (-kv[1], kv[0]))[:3],
    }[op]


OPS = {
    "count": lambda c: c.count(PRED),
    "exists": lambda c: c.exists(PRED),
    "count_by": lambda c: c.count_by("b", PRED),
    "topk": lambda c: c.topk("b", PRED, k=3),
}


def window(cluster, fn):
    """One call's answer, fold messages, bits read and tier verdicts."""
    ops = getattr(cluster.executor, "op_counts", {})
    folds0 = ops.get("fold", 0)
    io0 = cluster.scatter_io.snapshot()
    hits0 = cluster.shared_cache.hits
    misses0 = cluster.shared_cache.misses
    answer = fn(cluster)
    return (
        answer,
        ops.get("fold", 0) - folds0,
        (cluster.scatter_io.snapshot() - io0).bits_read,
        cluster.shared_cache.hits - hits0,
        cluster.shared_cache.misses - misses0,
    )


def fold_entries(cluster):
    return [k for k in cluster.shared_cache.store._lru._data if k[0] == FOLDS]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("op", sorted(OPS))
def test_repeat_sends_no_fold_and_reads_nothing(executor_of, kind, op):
    cluster = make_cluster(executor_of(kind))
    try:
        first, first_msgs, first_bits, _, first_misses = window(
            cluster, OPS[op]
        )
        assert first == oracle(cluster, op)
        assert first_bits > 0 and first_misses > 0
        if kind == "process":
            assert first_msgs == first_misses
        again, msgs, bits, hits, misses = window(cluster, OPS[op])
        assert again == first
        assert (msgs, bits, misses) == (0, 0, 0)
        assert hits == first_misses
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("column", ["a", "b"])
def test_write_refolds_only_its_shard(executor_of, kind, column):
    # Either column of the fold moves its key: "b" sorts second in the
    # version vector, "a" first.
    cluster = make_cluster(executor_of(kind))
    try:
        window(cluster, OPS["count_by"])
        for shard_id in range(SHARDS):
            lo, _ = cluster.plan_.slices()[shard_id]
            current = cluster.shards[shard_id].column(column).codes[0]
            cluster.change(column, lo, (current + 1) % 8)
            answer, msgs, bits, hits, misses = window(
                cluster, OPS["count_by"]
            )
            assert answer == oracle(cluster, "count_by")
            assert (hits, misses) == (SHARDS - 1, 1)
            assert bits > 0
            if kind == "process":
                assert msgs == 1
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", KINDS)
def test_drop_caches_empties_the_tier(executor_of, kind):
    cluster = make_cluster(executor_of(kind))
    try:
        window(cluster, OPS["count"])
        assert fold_entries(cluster)
        cluster.drop_caches()
        assert len(cluster.shared_cache) == 0
        answer, msgs, bits, hits, misses = window(cluster, OPS["count"])
        assert answer == oracle(cluster, "count")
        assert hits == 0 and misses == SHARDS and bits > 0
        if kind == "process":
            assert msgs == SHARDS
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("store", ["lru", "ttl"])
def test_readded_column_never_serves_the_old_fold(executor_of, kind, store):
    # An expiry-only store evicts nothing on drop_column, so there the
    # epoch in the fold key is the only fence.
    shared = InMemorySharedCache(
        store=TTLStore(ttl_s=3600) if store == "ttl" else None
    )
    cluster = make_cluster(executor_of(kind), shared_cache=shared)
    try:
        before = window(cluster, OPS["count_by"])[0]
        cluster.drop_column("b")
        if store == "lru":
            assert not fold_entries(cluster)
        fresh = [(c + 3) % 8 for c in codes(2, 8)]
        cluster.add_column("b", fresh, 8, dynamism="fully_dynamic")
        answer, _, bits, hits, _ = window(cluster, OPS["count_by"])
        assert answer == oracle(cluster, "count_by") != before
        assert hits == 0 and bits > 0
    finally:
        cluster.close()


def test_split_and_merge_drop_retired_fold_entries():
    cluster = make_cluster()
    window(cluster, OPS["count"])
    retired = cluster.shard_uids[1]
    cluster.split_shard(1)
    uids = {k[1] for k in fold_entries(cluster)}
    assert retired not in uids and uids <= set(cluster.shard_uids)
    assert window(cluster, OPS["count"])[0] == oracle(cluster, "count")
    left, right = cluster.shard_uids[1:3]
    cluster.merge_shards(1)
    uids = {k[1] for k in fold_entries(cluster)}
    assert not uids & {left, right}
    assert window(cluster, OPS["count"])[0] == oracle(cluster, "count")


def test_cached_values_are_immutable():
    cluster = make_cluster()
    got = cluster.count_by("b", PRED)
    got.clear()
    top = cluster.topk("b", PRED, k=3)
    top.append((99, 99))
    assert cluster.count_by("b", PRED) == oracle(cluster, "count_by")
    assert cluster.topk("b", PRED, k=3) == oracle(cluster, "topk")
    values = [
        cluster.shared_cache.store._lru._data[k] for k in fold_entries(cluster)
    ]
    assert values and all(
        type(v) is list and all(type(x) is int for x in v) for v in values
    )


class _NullStore(CacheStore):
    def get(self, key):
        return None

    def put(self, key, positions):
        pass

    def __len__(self):
        return 0


@pytest.mark.parametrize("kind", ["serial", "process"])
def test_null_store_turns_fold_caching_off(executor_of, kind):
    metrics = MetricsRegistry()
    shared = InMemorySharedCache(store=_NullStore())
    cluster = make_cluster(
        executor_of(kind), shared_cache=shared, metrics=metrics
    )
    try:
        first = window(cluster, OPS["count"])
        again = window(cluster, OPS["count"])
        assert again[0] == first[0] == oracle(cluster, "count")
        counters = metrics.to_dict()["counters"]
        assert counters["cache.shared.misses"] == 2 * SHARDS
        assert "cache.shared.hits" not in counters
        if kind == "process":
            assert again[1] == SHARDS
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", ["serial", "process"])
def test_file_cache_store_cluster_answers_folds(executor_of, kind, tmp_path):
    store = FileCacheStore(str(tmp_path))
    shared = InMemorySharedCache(store=store)
    cluster = make_cluster(executor_of(kind), shared_cache=shared)
    try:
        for op in sorted(OPS):
            assert window(cluster, OPS[op])[0] == oracle(cluster, op)
            answer, msgs, bits, hits, misses = window(cluster, OPS[op])
            assert answer == oracle(cluster, op)
            assert (msgs, bits, misses) == (0, 0, 0) and hits > 0
        # Retirement and DDL drop the fold entries from disk as well.
        retired = cluster.shard_uids[0]
        cluster.split_shard(0)
        assert store.invalidate_prefix((FOLDS, retired)) == 0
        assert store.invalidate_prefix((FOLDS,)) > 0
        window(cluster, OPS["count"])
        cluster.drop_column("a")
        assert store.invalidate_prefix((FOLDS,)) == 0
    finally:
        cluster.close()


def test_file_cache_store_keeps_one_version_per_key(tmp_path):
    # The store has no LRU and writes evict nothing: each put unlinks
    # the older versions in its directory, so entry files follow the
    # live keys, not the number of writes.
    store = FileCacheStore(str(tmp_path))
    cluster = make_cluster(shared_cache=InMemorySharedCache(store=store))
    row, _ = cluster.plan_.slices()[1]
    for step in range(12):
        cluster.change("a", row, step % 16)
        a = [c for s in cluster.shards for c in s.column("a").codes]
        want = [i for i, c in enumerate(a) if 3 <= c <= 11]
        assert cluster.query("a", 3, 11).positions() == want
        assert cluster.count(PRED) == oracle(cluster, "count")
    # One range answer and one count fold per shard.
    assert store.entry_count() == 2 * SHARDS


def test_fold_hits_are_traced_and_counted():
    tracer = Tracer(clock=ManualClock())
    metrics = MetricsRegistry()
    cluster = make_cluster(tracer=tracer, metrics=metrics)
    cluster.count(PRED)
    counters = metrics.to_dict()["counters"]
    assert counters["cache.shared.misses"] == SHARDS
    assert "cache.shared.hits" not in counters
    cluster.count(PRED)
    counters = metrics.to_dict()["counters"]
    assert counters["cache.shared.hits"] == SHARDS
    lookups = tracer.last().find("cache_lookup")
    assert len(lookups) == SHARDS
    assert {e.tags["shard_uid"] for e in lookups} == set(cluster.shard_uids)
    for event in lookups:
        assert event.tags["tier"] == "shared" and event.tags["hit"] is True
        assert event.tags["mode"] == "count" and event.tags["bits_read"] == 0
    stats = cluster.stats().shared_cache
    assert (stats.hits, stats.misses) == (SHARDS, SHARDS)
