"""The E21 ledger's frozen hooks still fit the code they wrap.

``perfbench/layers.py`` wraps ``ProcessExecutor`` methods by name
(every ``submit_*`` future, ``flush_deltas``, ``build_shard``), the
cluster's read calls on the instance, and the plan layer as the
cluster module calls it (``repro.cluster.engine.compile_pred`` and
``specialize``) for the traced ``--trace 1`` run.  Removing or renaming
one of them, or a read path that stops calling the module's names,
breaks that run or silently zeroes its plan figures, so this test
attaches the probe to a live pool and cluster and serves predicate
reads through it.
"""

from collections import Counter
from types import SimpleNamespace

import repro.cluster.engine as cluster_module
from repro.cluster import ClusterEngine, ProcessExecutor
from repro.model.distributions import uniform, zipf
from repro.obs import Tracer
from repro.query import And, Range

from perfbench.layers import LayerProbe


def test_layer_probe_wraps_a_live_process_executor():
    a = uniform(200, 8, seed=51)
    b = zipf(200, 8, theta=1.2, seed=52)
    pred = And(Range("a", 1, 5), Range("b", 0, 3))
    want = [i for i in range(200) if 1 <= a[i] <= 5 and b[i] <= 3]
    by_b = dict(Counter(b[i] for i in want))
    compile_pred = cluster_module.compile_pred
    specialize = cluster_module.specialize
    # An open segment 0, so the probe records what it times.
    probe = LayerProbe(SimpleNamespace(current=0))
    with ProcessExecutor(max_workers=2) as pool:
        probe.attach_executor(pool)
        cluster = ClusterEngine(num_shards=4, executor=pool, tracer=Tracer())
        try:
            cluster.add_column("a", a, 8)
            cluster.add_column("b", b, 8)
            assert cluster.query(pred).positions() == want
            probe.start(cluster)
            try:
                assert cluster.count(pred) == len(want)
                assert cluster.select(pred) == want
                assert cluster.count_by("b", pred) == by_b
                assert cluster.topk("b", pred, k=2) == sorted(
                    by_b.items(), key=lambda kv: (-kv[1], kv[0])
                )[:2]
            finally:
                probe._unpatch()
        finally:
            cluster.close()
    assert probe.sums["build"][0] > 0
    assert probe.sums["wait"][0] > 0
    # Four top-level reads (topk's nested count_by is not a call of
    # its own), each compiling the two-leaf plan once through the
    # cluster module's compile_pred and specializing it per shard.
    assert probe.sums["call"][0] > 0
    assert probe.sums["plan_call"][0] > 0
    assert probe.sums["leaves"][0] == 4 * 2
    assert cluster_module.compile_pred is compile_pred
    assert cluster_module.specialize is specialize
