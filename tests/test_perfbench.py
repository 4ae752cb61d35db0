"""The E21 ledger's frozen hooks still fit the executor they wrap.

``perfbench/layers.py`` wraps ``ProcessExecutor`` methods by name
(every ``submit_*`` future, ``flush_deltas``, ``build_shard``) for the
traced ``--trace 1`` run.  Removing or renaming one of them breaks
that run, so this test attaches the probe to a live pool and serves
predicate reads through it.
"""

from types import SimpleNamespace

from repro.cluster import ClusterEngine, ProcessExecutor
from repro.model.distributions import uniform, zipf
from repro.query import And, Range

from perfbench.layers import LayerProbe


def test_layer_probe_wraps_a_live_process_executor():
    a = uniform(200, 8, seed=51)
    b = zipf(200, 8, theta=1.2, seed=52)
    pred = And(Range("a", 1, 5), Range("b", 0, 3))
    want = [i for i in range(200) if 1 <= a[i] <= 5 and b[i] <= 3]
    # An open segment 0, so the probe records what it times.
    probe = LayerProbe(SimpleNamespace(current=0))
    with ProcessExecutor(max_workers=2) as pool:
        probe.attach_executor(pool)
        cluster = ClusterEngine(num_shards=4, executor=pool)
        try:
            cluster.add_column("a", a, 8)
            cluster.add_column("b", b, 8)
            assert cluster.query(pred).positions() == want
            assert cluster.select(pred) == want
            assert cluster.count(pred) == len(want)
        finally:
            cluster.close()
    assert probe.sums["build"][0] > 0
    assert probe.sums["wait"][0] > 0
