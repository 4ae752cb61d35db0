"""The memo of decoded gap lists follows the owning engine's result cache.

An engine whose result cache is on (``cache_size > 0``, the default)
turns on the memo of its columns' disks (``Disk.read_gaps``); a
``cache_size=0`` engine keeps none, so every read decodes afresh.  The
rule holds for columns built, built late (deferred), rebuilt by a
migration and restored from a checkpoint, and ``drop_caches`` empties
every memo.  Local engines are inspected through
``Disk.memoized_gaps``; worker processes are observed by the decodes
they do, through a counter in shared memory that forked workers
inherit with the wrapped ``repro.iomodel.disk.decode_gaps``.
"""

import multiprocessing
import random

import pytest

from repro.cluster import ClusterEngine, ProcessExecutor
from repro.engine import QueryEngine
from repro.engine.registry import get_spec
from repro.iomodel import disk as disk_module
from repro.query import Range

from tests.conftest import brute_range

ROWS = 600
SIGMA = 16
SHARDS = 3
HIS = range(2, 9)


def codes(seed):
    rng = random.Random(seed)
    return [rng.randrange(SIGMA) for _ in range(ROWS)]


def fresh_counts(engine, name):
    """Overlapping ranges, none repeated: no result cache answers them."""
    return [engine.count(Range(name, 1, hi)) for hi in HIS]


def oracle_counts(x):
    return [len(brute_range(x, 1, hi)) for hi in HIS]


def memo_sizes(engines, name):
    return [e.column(name).index.disk.memoized_gaps for e in engines]


def follows(sizes, cache_size):
    if cache_size == 0:
        return all(size is None for size in sizes)
    return all(size > 0 for size in sizes)


@pytest.mark.parametrize("cache_size", [0, 1024])
@pytest.mark.parametrize("backend", ["bitmap-gamma", "pagh-rao"])
def test_query_engine_memo_follows_cache_size(cache_size, backend):
    engine = QueryEngine(cache_size=cache_size)
    x, y = codes(1), codes(2)
    engine.add_column("c", x, SIGMA, backend=backend)
    engine.add_column("d", y, SIGMA, backend=backend, defer_index=True)
    assert engine.column("d").deferred
    assert fresh_counts(engine, "c") == oracle_counts(x)
    assert fresh_counts(engine, "d") == oracle_counts(y)
    assert follows(memo_sizes([engine], "c") + memo_sizes([engine], "d"),
                   cache_size)
    engine.column("c").rebuild(get_spec("uniform-tree"))
    assert fresh_counts(engine, "c") == oracle_counts(x)
    assert follows(memo_sizes([engine], "c"), cache_size)


@pytest.mark.parametrize("cache_size", [0, 128])
def test_serial_cluster_memo_follows_cache_size(cache_size, tmp_path):
    x = codes(1)
    cluster = ClusterEngine(
        num_shards=SHARDS, cache_size=cache_size, drift_window=None
    )
    cluster.add_column("c", x, SIGMA, backend="bitmap-gamma")
    assert fresh_counts(cluster, "c") == oracle_counts(x)
    assert follows(memo_sizes(cluster.shards, "c"), cache_size)
    cluster.drop_caches()
    assert all(size in (0, None) for size in memo_sizes(cluster.shards, "c"))
    cluster.migrate("c", backend="pagh-rao")
    assert fresh_counts(cluster, "c") == oracle_counts(x)
    assert follows(memo_sizes(cluster.shards, "c"), cache_size)
    cluster.checkpoint(str(tmp_path))
    restored = ClusterEngine.restore(str(tmp_path))
    assert fresh_counts(restored, "c") == oracle_counts(x)
    assert follows(memo_sizes(restored.shards, "c"), cache_size)


@pytest.fixture
def decodes(monkeypatch):
    """How many gap lists ``Disk.read_gaps`` decoded, workers included."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("counting worker decodes needs forked workers")
    counter = multiprocessing.get_context("fork").Value("q", 0, lock=False)
    decode = disk_module.decode_gaps

    def counting(reader, count):
        counter.value += 1
        return decode(reader, count)

    monkeypatch.setattr(disk_module, "decode_gaps", counting)
    return counter


def lists_in(cluster, name, lo, hi):
    """Per-character gap lists a bitmap-gamma read of [lo, hi] decodes."""
    return sum(
        len({c for c in engine.column(name).codes if lo <= c <= hi})
        for engine in cluster.shards
    )


def check_worker_memo(cluster, name, cache_size, decodes):
    def decoded(hi):
        before = decodes.value
        cluster.count(Range(name, 1, hi))
        return decodes.value - before

    assert decoded(5) == lists_in(cluster, name, 1, 5)
    # A fresh range reuses the lists it shares with the first one.
    shared = 0 if cache_size == 0 else lists_in(cluster, name, 1, 5)
    assert decoded(6) == lists_in(cluster, name, 1, 6) - shared
    cluster.drop_caches()
    assert decoded(6) == lists_in(cluster, name, 1, 6)


@pytest.mark.parametrize("cache_size", [0, 128])
def test_process_cluster_memo_follows_cache_size(
    decodes, cache_size, tmp_path
):
    # Workers fork after the counter is in place, so they inherit it.
    with ProcessExecutor(max_workers=1, start_method="fork") as pool:
        cluster = ClusterEngine(
            num_shards=SHARDS, executor=pool, cache_size=cache_size,
            drift_window=None,
        )
        cluster.add_column("c", codes(1), SIGMA, backend="bitmap-gamma")
        cluster.add_column("m", codes(2), SIGMA, backend="pagh-rao")
        check_worker_memo(cluster, "c", cache_size, decodes)
        cluster.migrate("m", backend="bitmap-gamma")
        check_worker_memo(cluster, "m", cache_size, decodes)
        cluster.checkpoint(str(tmp_path))
        cluster.close()
        restored = ClusterEngine.restore(str(tmp_path), executor=pool)
        try:
            check_worker_memo(restored, "c", cache_size, decodes)
        finally:
            restored.close()
