"""Stateful tests: the shard lifecycle (auto-split/merge) stays exact.

The cluster's sizing policy — split a shard whose live rows outgrow
``target_shard_rows``, fuse an underfull shard into its smaller
neighbor when the union stays under the target — reshapes the shard
set while serving.  The machine below interleaves appends, changes,
deletes, queries, and selects with that policy active, mirroring it in
a plain-Python model of per-shard strings that *independently*
implements the same spec: split every column at one row, the longest
column's live midpoint (holes compact), merge by concatenating live
codes.  After every step the cluster must
agree bit-exactly with the model (the brute oracle) *and*, for the
delete-free column, with a single-engine :class:`QueryEngine` fed the
identical updates — splits must be invisible to global RIDs when no
holes compact.

The invariants also enforce the cache-key lifecycle: every live
shared-cache key — leaf answers and aggregate folds alike — must
reference a *current* shard uid, at a version no newer than that
shard's — a split or merge that leaked a retired shard's entries, or
let a fresh shard alias one, fails here immediately.  A fold rule asks
``count``, ``exists`` and ``count_by`` with whatever the cache holds,
then after ``drop_caches``, so every cached fold is checked against a
fresh one across writes, compactions, splits and merges.  Two-column
reads answer exactly while the columns agree on every shard's length
but the last, and raise :class:`QueryError` otherwise.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster import ClusterEngine
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError, QueryError
from repro.model.distributions import uniform
from repro.queries import Table
from repro.query import And, Range

from tests.conftest import brute_range

SIGMA = 8
TARGET = 12
FLOOR = TARGET // 4  # the constructor's default merge floor
REBUILD_FRACTION = 0.5  # DeletableIndex's default


def live_count(shard):
    return sum(1 for c in shard if c is not None)


class ClusterLifecycleMachine(RuleBasedStateMachine):
    """Two columns under the auto lifecycle, vs model + single engine."""

    @initialize()
    def setup(self):
        self.cluster = ClusterEngine(
            target_shard_rows=TARGET, drift_window=None
        )
        base_a = [0, 3, 1, 7, 2, 5, 0, 4, 6, 1, 3, 2] * 2
        base_b = [1, 1, 2, 6, 3, 0, 7, 5, 4, 2, 0, 6] * 2
        self.cluster.add_column("a", base_a, SIGMA, dynamism="fully_dynamic")
        self.cluster.add_column(
            "b", base_b, SIGMA, dynamism="fully_dynamic", require_delete=True
        )
        # The delete-free column is additionally mirrored by a single
        # engine fed the identical update stream: lifecycle reshapes
        # must be invisible to its global RIDs.
        self.single = QueryEngine()
        self.single.add_column("a", base_a, SIGMA, dynamism="fully_dynamic")
        slices = self.cluster.plan_.slices()
        self.a_shards = [list(base_a[lo:hi]) for lo, hi in slices]
        self.b_shards = [list(base_b[lo:hi]) for lo, hi in slices]

    # ------------------------------------------------------------------
    # Model: the lifecycle policy, implemented independently
    # ------------------------------------------------------------------

    def _columns(self):
        return (self.a_shards, self.b_shards)

    def _max_live(self, sid):
        return max(live_count(shards[sid]) for shards in self._columns())

    def _model_split(self, sid):
        lives = [
            [c for c in shards[sid] if c is not None]
            for shards in self._columns()
        ]
        mid = max(len(live) for live in lives) // 2
        for shards, live in zip(self._columns(), lives):
            cut = min(mid, len(live) - 1)
            shards[sid : sid + 1] = [live[:cut], live[cut:]]

    def _model_merge(self, left):
        for shards in self._columns():
            merged = [c for c in shards[left] if c is not None] + [
                c for c in shards[left + 1] if c is not None
            ]
            shards[left : left + 2] = [merged]

    def _model_lifecycle(self, sid, may_shrink=False):
        # Mirrors the cluster's policy exactly, including its gating:
        # the merge check runs only on deletes (the only live-shrinking
        # update), the split check on every update.
        if self._max_live(sid) > TARGET:
            if all(
                live_count(shards[sid]) >= 2 for shards in self._columns()
            ):
                self._model_split(sid)
            return
        if (
            may_shrink
            and len(self.a_shards) > 1
            and self._max_live(sid) < FLOOR
        ):
            neighbors = sorted(
                (
                    s
                    for s in (sid - 1, sid + 1)
                    if 0 <= s < len(self.a_shards)
                ),
                key=lambda s: (self._max_live(s), s),
            )
            for nb in neighbors:
                if self._max_live(sid) + self._max_live(nb) > TARGET:
                    continue
                left = min(sid, nb)
                if any(
                    live_count(shards[left]) + live_count(shards[left + 1])
                    == 0
                    for shards in self._columns()
                ):
                    continue
                self._model_merge(left)
                return

    def _flat(self, shards):
        return [c for shard in shards for c in shard]

    def _expected(self, shards, lo, hi):
        return [
            i
            for i, c in enumerate(self._flat(shards))
            if c is not None and lo <= c <= hi
        ]

    def _route(self, shards, global_pos):
        for sid, shard in enumerate(shards):
            if global_pos < len(shard):
                return sid, global_pos
            global_pos -= len(shard)
        raise AssertionError("machine routed outside its own model")

    def _live_positions(self, shards):
        return [
            i for i, c in enumerate(self._flat(shards)) if c is not None
        ]

    def _shards(self, name):
        return self.a_shards if name == "a" else self.b_shards

    def _row_pairs(self, group, other, lo, hi):
        """The group codes of rows whose ``other`` code is in [lo, hi].

        A fold runs row-wise in each shard's own position space, so
        row p of a shard pairs both columns' p-th codes.
        """
        for g, o in zip(self._shards(group), self._shards(other)):
            for gc, oc in zip(g, o):
                if gc is not None and oc is not None and lo <= oc <= hi:
                    yield gc

    def _aligned(self):
        """Whether both columns are equally long on every shard but the
        last: only then does a fold's row-wise pairing name the same
        rows as global RIDs (a compacting delete in ``b`` breaks it),
        and only then does a two-column read answer."""
        return all(
            len(a) == len(b)
            for a, b in zip(self.a_shards[:-1], self.b_shards[:-1])
        )

    # ------------------------------------------------------------------
    # Update rules (every one may trigger a lifecycle operation)
    # ------------------------------------------------------------------

    @rule(ch=st.integers(0, SIGMA - 1))
    def append_a(self, ch):
        self.cluster.append("a", ch)
        self.single.append("a", ch)
        sid = len(self.a_shards) - 1
        self.a_shards[sid].append(ch)
        self._model_lifecycle(sid)

    @rule(data=st.data())
    def change_a(self, data):
        total = sum(len(s) for s in self.a_shards)
        pos = data.draw(st.integers(0, total - 1))
        ch = data.draw(st.integers(0, SIGMA - 1))
        self.cluster.change("a", pos, ch)
        self.single.change("a", pos, ch)
        sid, local = self._route(self.a_shards, pos)
        self.a_shards[sid][local] = ch
        self._model_lifecycle(sid)

    @rule(ch=st.integers(0, SIGMA - 1))
    def append_b(self, ch):
        self.cluster.append("b", ch)
        sid = len(self.b_shards) - 1
        self.b_shards[sid].append(ch)
        self._model_lifecycle(sid)

    @rule(data=st.data())
    def change_b(self, data):
        live = self._live_positions(self.b_shards)
        if not live:
            return
        pos = data.draw(st.sampled_from(live))
        ch = data.draw(st.integers(0, SIGMA - 1))
        self.cluster.change("b", pos, ch)
        sid, local = self._route(self.b_shards, pos)
        self.b_shards[sid][local] = ch
        self._model_lifecycle(sid)

    @rule(data=st.data())
    def delete_b(self, data):
        live = self._live_positions(self.b_shards)
        if not live:
            return
        pos = data.draw(st.sampled_from(live))
        self.cluster.delete("b", pos)
        sid, local = self._route(self.b_shards, pos)
        shard = self.b_shards[sid]
        shard[local] = None
        # Mirror the backend's own compaction first (it happens inside
        # the delete), then the cluster's lifecycle check.
        holes = sum(1 for c in shard if c is None)
        if holes >= REBUILD_FRACTION * max(1, len(shard)):
            self.b_shards[sid] = [c for c in shard if c is not None]
        self._model_lifecycle(sid, may_shrink=True)

    @rule(data=st.data())
    def merge_adjacent(self, data):
        """Explicit merges (the auto floor is hard to starve down to
        while column `a` keeps growing): same model mirror, same
        cache-lifecycle obligations."""
        candidates = [
            left
            for left in range(len(self.a_shards) - 1)
            if self._max_live(left) + self._max_live(left + 1) <= TARGET
            and all(
                live_count(shards[left]) + live_count(shards[left + 1]) > 0
                for shards in self._columns()
            )
        ]
        if not candidates:
            return
        left = data.draw(st.sampled_from(candidates))
        self.cluster.merge_shards(left)
        self._model_merge(left)

    # ------------------------------------------------------------------
    # Query rules (the second ask is the cache-hitting one)
    # ------------------------------------------------------------------

    @rule(data=st.data())
    def query_twice(self, data):
        name, shards = data.draw(
            st.sampled_from(
                [("a", self.a_shards), ("b", self.b_shards)]
            )
        )
        lo = data.draw(st.integers(0, SIGMA - 1))
        hi = data.draw(st.integers(lo, SIGMA - 1))
        want = self._expected(shards, lo, hi)
        assert self.cluster.query(name, lo, hi).positions() == want
        assert self.cluster.query(name, lo, hi).positions() == want
        if name == "a":
            assert self.single.query("a", lo, hi).positions() == want

    @rule(data=st.data())
    def conjunctive_reads(self, data):
        lo = data.draw(st.integers(0, SIGMA - 2))
        conditions = And(Range("a", lo, lo + 1), Range("b", 0, 3))
        reads = (
            lambda: self.cluster.select(conditions),
            lambda: list(self.cluster.select_iter(conditions)),
            lambda: self.cluster.query(conditions).positions(),
            lambda: self.cluster.count(conditions),
        )
        if not self._aligned():
            for read in reads:
                with pytest.raises(QueryError):
                    read()
            return
        a = set(self._expected(self.a_shards, lo, lo + 1))
        b = set(self._expected(self.b_shards, 0, 3))
        want = sorted(a & b)
        assert [read() for read in reads] == [want, want, want, len(want)]

    @rule(
        data=st.data(),
        bounds=st.sampled_from([(1, 4), (3, 7)]),  # few plans: they repeat
    )
    def folds_match_fresh_folds(self, data, bounds):
        group = data.draw(st.sampled_from(["a", "b"]))
        other = "b" if group == "a" else "a"
        # lo >= 1: a full range normalizes to TRUE, which counts
        # deleted slots.
        lo, hi = bounds
        pred = Range(other, lo, hi)
        grouped = lambda: self.cluster.count_by(group, pred)  # noqa: E731
        aligned = self._aligned()
        asks = (
            lambda: self.cluster.count(pred),
            lambda: self.cluster.exists(pred),
        ) + ((grouped,) if aligned else ())
        # With whatever the cache holds (entries stored before the
        # latest writes and reshapes included), then cold — a fresh
        # fold at the same versions — then from what the cold pass
        # stored.
        cached = [ask() for ask in asks]
        self.cluster.drop_caches()
        fresh = [ask() for ask in asks]
        assert cached == fresh
        assert [ask() for ask in asks] == fresh
        want = len(self._expected(self._shards(other), lo, hi))
        assert fresh[:2] == [want, want > 0]
        if aligned:
            pairs = self._row_pairs(group, other, lo, hi)
            assert fresh[2] == dict(Counter(pairs))
        else:
            with pytest.raises(QueryError):
                grouped()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def model_and_cluster_agree_on_shard_layout(self):
        # The strongest differential check: the independently modeled
        # lifecycle policy produced the identical shard set.
        for name, shards in (("a", self.a_shards), ("b", self.b_shards)):
            assert self.cluster.shard_lengths(name) == [
                len(s) for s in shards
            ]

    @invariant()
    def cached_entries_reference_live_uids_and_versions(self):
        # The key lifecycle: every shared-cache key is a fold key,
        # (shard uid, digest, version sum), and must carry a *current*
        # shard uid (retired uids are evicted eagerly) at a version no
        # newer than the shard's (writes evict nothing; versions only
        # grow, so an older key is never looked up again).
        uids = self.cluster.shard_uids
        for key in list(self.cluster.shared_cache._lru._data):
            assert len(key) == 3 and isinstance(key[1], str), key
            uid, _, version = key
            assert uid in uids
            position = uids.index(uid)
            # The digest hides which columns the fold read; the sum of
            # their versions cannot pass the sum of all.
            current = sum(
                self.cluster.shard_column(col, position).version
                for col in self.cluster.columns
            )
            assert version <= current

    @invariant()
    def full_range_matches(self):
        for name, shards in (("a", self.a_shards), ("b", self.b_shards)):
            got = self.cluster.query(name, 0, SIGMA - 1).positions()
            assert got == self._expected(shards, 0, SIGMA - 1)


TestClusterLifecycleMachine = ClusterLifecycleMachine.TestCase
TestClusterLifecycleMachine.settings = settings(
    max_examples=12, stateful_step_count=40, deadline=None
)


def test_auto_split_triggers_under_append_burst():
    """Deterministic companion: sustained appends force repeated
    splits; every answer stays oracle-identical and no shard ends
    above the target."""
    cluster = ClusterEngine(target_shard_rows=16, drift_window=None)
    base = [(5 * i + 2) % SIGMA for i in range(32)]
    cluster.add_column("c", base, SIGMA, dynamism="semidynamic")
    model = list(base)
    shards_before = cluster.num_shards
    for i in range(120):
        ch = (3 * i) % SIGMA
        cluster.append("c", ch)
        model.append(ch)
        lo, hi = i % 4, i % 4 + 3
        assert cluster.query("c", lo, hi).positions() == brute_range(
            model, lo, hi
        )
    assert cluster.splits, "appends past the target must split"
    assert cluster.num_shards > shards_before
    assert max(cluster.shard_lengths("c")) <= 16
    assert sum(cluster.shard_lengths("c")) == len(model)
    # Fresh uids per lifecycle op: all distinct, none reused.
    assert len(set(cluster.shard_uids)) == cluster.num_shards


def test_auto_merge_after_deletions():
    """Deletions starve shards below the floor; underfull shards fuse
    into neighbors (never overshooting the target) and answers stay
    oracle-identical through every reshape."""
    cluster = ClusterEngine(target_shard_rows=8, drift_window=None)
    base = [(7 * i + 1) % 4 for i in range(32)]
    cluster.add_column(
        "c", base, 4, dynamism="fully_dynamic", require_delete=True
    )
    assert cluster.num_shards == 4
    # Delete the current first live row repeatedly; compactions and
    # merges both renumber, so re-derive the oracle from the cluster's
    # own full-range answer each round instead of double-bookkeeping.
    survivors = list(base)
    for _ in range(26):
        victim_rid = cluster.query("c", 0, 3).positions()[0]
        # Deletes, compactions, and merges all preserve the relative
        # order of live values, so the model is just the value list.
        survivors = survivors[1:]
        cluster.delete("c", victim_rid)
        # Reconstruct the full live value sequence from per-value
        # position lists: it must equal the model bit-exactly, however
        # compactions and merges renumbered the RIDs underneath.
        sequence = sorted(
            (pos, v)
            for v in range(4)
            for pos in cluster.query("c", v, v).positions()
        )
        assert [v for _, v in sequence] == survivors
    assert cluster.merges, "starved shards must merge"
    assert cluster.num_shards < 4
    assert max(cluster.shard_lengths("c")) <= 8


def test_split_retires_only_the_split_shards_cache_entries():
    """Pre-split hot entries of the split shard die; siblings' hot
    entries keep serving — and a fresh shard can never alias a
    retired neighbor's entry (the positional-key bug stable uids
    exist to prevent)."""
    # Shard 2 holds no value in [1, 4]; after splitting shard 1 the
    # shard at *position* 2 is old shard 1's right half, whose correct
    # answer is every row.  A positional cache key would serve the old
    # (empty) entry; the uid key cannot.
    x = [1] * 20 + [2] * 20 + [7] * 20
    cluster = ClusterEngine(num_shards=3, drift_window=None)
    cluster.add_column("c", x, 8, dynamism="fully_dynamic")
    want = brute_range(x, 1, 4)
    assert cluster.query("c", 1, 4).positions() == want
    assert len(cluster.shared_cache) == 3
    hits_before = cluster.shared_cache.hits
    uids_before = list(cluster.shard_uids)
    cluster.split_shard(1)
    assert cluster.num_shards == 4
    assert cluster.shard_uids[0] == uids_before[0]
    assert cluster.shard_uids[3] == uids_before[2]
    assert uids_before[1] not in cluster.shard_uids
    # The split shard's entry was evicted with its uid; the two
    # sibling entries survived.
    assert len(cluster.shared_cache) == 2
    # No holes were compacted, so global RIDs are unchanged — and the
    # re-ask must be bit-exact (a positional alias would drop 10 rows).
    assert cluster.query("c", 1, 4).positions() == want
    # Exactly the two sibling shards hit; both fresh halves missed.
    assert cluster.shared_cache.hits == hits_before + 2


def test_merge_retires_both_sides_cache_entries():
    x = [3, 3, 3, 3, 0, 0, 0, 0, 5, 5, 5, 5]
    cluster = ClusterEngine(num_shards=3, drift_window=None)
    cluster.add_column("c", x, 8, dynamism="fully_dynamic")
    assert cluster.query("c", 0, 5).positions() == list(range(12))
    assert len(cluster.shared_cache) == 3
    hits_before = cluster.shared_cache.hits
    surviving_uid = cluster.shard_uids[2]
    cluster.merge_shards(0)
    assert cluster.num_shards == 2
    assert cluster.shard_uids[1] == surviving_uid
    assert len(cluster.shared_cache) == 1
    assert cluster.query("c", 0, 5).positions() == list(range(12))
    assert cluster.shared_cache.hits == hits_before + 1  # shard 2 only


def test_streaming_gather_memory_is_block_bounded():
    """The stream buffers one shard's answer at a time: on a large,
    low-selectivity select the peak buffered RID count stays within
    the largest shard, far under the answer size."""
    n, sigma, shards = 4096, 8, 16
    a = uniform(n, sigma, seed=51)
    b = uniform(n, sigma, seed=52)
    cluster = ClusterEngine(num_shards=shards, drift_window=None)
    cluster.add_column("a", a, sigma)
    cluster.add_column("b", b, sigma)
    conditions = And(Range("a", 0, 6), Range("b", 0, 6))
    cluster.gather_stats.reset()
    count = 0
    last = -1
    for rid in cluster.select_iter(conditions):
        assert rid > last
        last = rid
        count += 1
    want = [i for i in range(n) if a[i] <= 6 and b[i] <= 6]
    assert count == len(want) > n // 2  # genuinely low selectivity
    max_shard = max(cluster.shard_lengths("a"))
    peak = cluster.gather_stats.peak_rids
    assert peak <= max_shard, (
        f"peak {peak} exceeds the one-shard bound {max_shard}"
    )
    assert peak < count, "peak must stay below the full answer"
    assert cluster.gather_stats.live_rids == 0  # all buffers released
    # Early abandonment releases buffers too (generator close path).
    cluster.gather_stats.reset()
    it = cluster.select_iter(conditions)
    for _ in range(5):
        next(it)
    it.close()
    assert cluster.gather_stats.live_rids == 0
    # And the materialized select agrees with the streamed one.
    assert cluster.select(conditions) == want


def test_lifecycle_validation_and_errors():
    cluster = ClusterEngine(num_shards=2, drift_window=None)
    cluster.add_column("c", [0, 1, 2, 3], 4, dynamism="fully_dynamic")
    import pytest

    with pytest.raises(InvalidParameterError):
        cluster.split_shard(5)
    with pytest.raises(InvalidParameterError):
        cluster.merge_shards(1)  # no right neighbor
    with pytest.raises(InvalidParameterError):
        cluster.rebalance()  # no target anywhere
    with pytest.raises(InvalidParameterError):
        cluster.rebalance(target_shard_rows=0)
    with pytest.raises(InvalidParameterError):
        ClusterEngine(num_shards=2, auto_split=True)  # needs a target
    with pytest.raises(InvalidParameterError):
        ClusterEngine(target_shard_rows=8, min_shard_rows=9)
    with pytest.raises(InvalidParameterError):
        ClusterEngine(target_shard_rows=8, min_shard_rows=0)
    # A 1-row shard cannot split.
    tiny = ClusterEngine(num_shards=4, drift_window=None)
    tiny.add_column("t", [0, 1, 2, 3], 4)
    with pytest.raises(InvalidParameterError):
        tiny.split_shard(0)
    # A rejected lifecycle call leaves the cluster fully serviceable.
    assert cluster.query("c", 0, 3).positions() == [0, 1, 2, 3]
    assert tiny.query("t", 0, 3).positions() == [0, 1, 2, 3]


def test_rebalance_converges_on_large_reshapes():
    """A reshape needing hundreds of splits must run to completion —
    the op backstop is sized from the data, never from the starting
    shard count."""
    x = uniform(4100, 8, seed=58)
    cluster = ClusterEngine(num_shards=1, drift_window=None)
    cluster.add_column("c", x, 8)
    ops = cluster.rebalance(target_shard_rows=16)
    assert ops >= 255
    assert max(cluster.shard_lengths("c")) <= 16
    assert cluster.query("c", 2, 5).positions() == brute_range(x, 2, 5)


def test_rebalance_honors_configured_merge_floor():
    """An explicit rebalance target must not discard the operator's
    min_shard_rows: shards above the configured floor stay unmerged
    even when the default target//4 ratio would fuse them."""
    cluster = ClusterEngine(
        num_shards=10, min_shard_rows=2, drift_window=None, auto_split=False
    )
    cluster.add_column("c", uniform(30, 4, seed=59), 4)
    assert cluster.shard_lengths("c") == [3] * 10
    # Default ratio would be 100 // 4 = 25 and merge everything; the
    # configured floor of 2 keeps every 3-row shard as it is.
    assert cluster.rebalance(target_shard_rows=100) == 0
    assert cluster.num_shards == 10


def test_rebalance_reshapes_a_fixed_cluster():
    """A num_shards cluster has no auto policy, but rebalance() with an
    explicit target reshapes it — splitting the one fat shard."""
    x = uniform(200, 16, seed=53)
    cluster = ClusterEngine(num_shards=1, drift_window=None)
    cluster.add_column("c", x, 16)
    ops = cluster.rebalance(target_shard_rows=30)
    assert ops > 0 and cluster.num_shards >= 7
    assert max(cluster.shard_lengths("c")) <= 30
    for lo, hi in [(0, 15), (3, 12), (7, 7)]:
        assert cluster.query("c", lo, hi).positions() == brute_range(
            x, lo, hi
        )
    # Idempotent once balanced.
    assert cluster.rebalance(target_shard_rows=30) == 0


def test_split_rebuilds_static_columns_on_fresh_local_dictionaries():
    """A static column's halves are re-dictionaried: each new shard
    gets a dense local alphabet over exactly the codes it holds, and
    the per-shard advisor re-judges the slice."""
    # One shard holding 4-value data next to high-cardinality data.
    low = uniform(64, 4, seed=54)
    high = [4 + v for v in uniform(64, 200, seed=55)]
    cluster = ClusterEngine(num_shards=1, drift_window=None)
    cluster.add_column("c", low + high, 204, dynamism="static")
    assert cluster.columns["c"].domains[0] is not None
    cluster.split_shard(0)
    meta = cluster.columns["c"]
    # Fresh local dictionaries: the low half's domain is tiny, the
    # high half's large — and local sigma matches each domain.
    assert len(meta.domains[0]) <= 4
    assert len(meta.domains[1]) > 50
    for sid in range(2):
        assert cluster.shard_column("c", sid).sigma == len(meta.domains[sid])
    want = brute_range(low + high, 1, 100)
    assert cluster.query("c", 1, 100).positions() == want
    # Range pruning still works through the new dictionaries.
    assert cluster.query("c", 0, 3).positions() == brute_range(
        low + high, 0, 3
    )


def test_pins_carry_across_split_and_merge():
    cluster = ClusterEngine(num_shards=2, drift_window=None)
    cluster.add_column("c", uniform(40, 8, seed=56), 8, backend="btree")
    cluster.split_shard(0)
    # The column-wide pin governs both halves.
    assert cluster.backends("c") == ["btree", "btree", "btree"]
    per_shard = ClusterEngine(num_shards=2, drift_window=None)
    per_shard.add_column("d", uniform(40, 8, seed=57), 8)
    per_shard.migrate("d", shard_id=1, backend="btree")
    per_shard.split_shard(1)
    # A per-shard pin follows the data into both halves.
    assert per_shard.columns["d"].shard_pins == {1: "btree", 2: "btree"}
    assert per_shard.backends("d")[1:] == ["btree", "btree"]
    # Merging halves that agree keeps the pin; the untouched shard 0
    # pin map survives the positional shift.
    per_shard.merge_shards(1)
    assert per_shard.columns["d"].shard_pins == {1: "btree"}
    assert per_shard.backends("d")[1] == "btree"


def test_sharded_table_grows_through_auto_splits():
    """The value-space path end to end: a sharded Table built with a
    target splits under append_row while row ids, the value mirror,
    and select answers all stay aligned with a single-engine Table."""
    values_v = [5, 1, 5, 2, 7, 1, 5, 2] * 3
    values_w = [1, 2, 3, 4, 1, 2, 3, 4] * 3
    table = Table.sharded(
        {"v": list(values_v), "w": list(values_w)},
        target_shard_rows=10,
        dynamism="semidynamic",
        drift_window=None,
    )
    model_v, model_w = list(values_v), list(values_w)
    for i in range(40):
        v = values_v[i % len(values_v)]
        w = values_w[i % len(values_w)]
        rid = table.append_row({"v": v, "w": w})
        model_v.append(v)
        model_w.append(w)
        assert rid == len(model_v) - 1
        assert table.row(rid) == {"v": v, "w": w}
    assert table.engine.splits, "growth must have split shards"
    assert max(table.engine.shard_lengths("v")) <= 10
    single = Table({"v": model_v, "w": model_w})
    conds = And(Range("v", 2, 5), Range("w", 1, 3))
    assert table.select(conds) == single.select(conds)
    assert list(table.select_iter(conds)) == single.select(conds)


def test_sharded_table_explain_is_typed():
    import pytest

    from repro.errors import QueryError

    table = Table.sharded(
        {"age": [33, 41, 27, 58, 33, 41], "city": list("abcabc")},
        num_shards=2,
    )
    overview = table.explain()
    assert "2 shard(s)" in overview
    per_column = table.explain("age")
    assert "shard 0" in per_column and "shard 1" in per_column
    # Value-space conditions answer with the typed PlanReport: value
    # ranges translated like select's, per-leaf shard fan-out, JSON
    # round-trip, and a readable rendering.
    import json

    from repro.query import PlanReport

    conditions = And(Range("age", 30, 45), Range("city", "a", "a"))
    table.select(conditions)
    report = table.explain(conditions)
    assert isinstance(report, PlanReport)
    assert report.kind == "cluster" and report.num_shards == 2
    assert {leaf.column for leaf in report.leaves} == {"age", "city"}
    age_leaf = next(l for l in report.leaves if l.column == "age")
    assert len(age_leaf.shards) == 2
    assert age_leaf.cached  # the select above warmed its select folds
    json.dumps(report.to_dict())
    assert "and" in str(report)
    # A dimension with no value in range compiles to the empty plan —
    # reported as such, not crashed on.
    empty = table.explain(Range("age", 100, 200))
    assert empty.predicate == "FALSE" and empty.leaves == ()
    assert "empty" in str(empty)
    with pytest.raises(QueryError):
        table.explain({})
    with pytest.raises(QueryError):
        table.explain("missing")


def test_rebalance_prefers_the_hottest_of_tied_shards():
    """Heat-aware lifecycle: when oversized shards tie within the
    tolerance, the split order follows the existing per-shard update
    counters — the drift clocks double as the heat signal — with the
    positional tie-break keeping the policy deterministic."""
    cluster = ClusterEngine(num_shards=2, drift_window=None,
                            heat_tolerance=0.25)
    cluster.add_column(
        "c", uniform(80, 8, seed=71), 8, dynamism="fully_dynamic"
    )
    # Equal sizes (40/40), but all update traffic lands on shard 1.
    for i in range(12):
        cluster.change("c", 40 + (i % 40), i % 8)
    assert cluster.shard_heat(0) == 0 and cluster.shard_heat(1) == 12
    want = cluster.query("c", 0, 7).positions()
    cluster.rebalance(target_shard_rows=30)
    # Both shards were over target and tied in size: the hot one split
    # first (recorded shard_id is the position at split time).
    assert cluster.splits[0].shard_id == 1
    assert max(cluster.shard_lengths("c")) <= 30
    assert cluster.query("c", 0, 7).positions() == want


def test_rebalance_heat_tiebreak_respects_size_tolerance():
    # A clearly fatter cold shard must still split before a hot but
    # much smaller one: heat only breaks near-ties.
    cluster = ClusterEngine(num_shards=2, drift_window=None,
                            heat_tolerance=0.1)
    cluster.add_column(
        "c", uniform(100, 8, seed=72), 8, dynamism="fully_dynamic"
    )
    # Shard 1 starts at 50 rows and takes updates (hot); grow shard 1?
    # Appends go to the last shard, so fatten shard 1 instead and heat
    # shard 0: the size gap (beyond tolerance) must beat the heat.
    for i in range(30):
        cluster.append("c", i % 8)  # shard 1 -> 80 rows
    for i in range(10):
        cluster.change("c", i % 50, i % 8)  # heat shard 0
    assert cluster.shard_heat(0) >= 10
    cluster.rebalance(target_shard_rows=45)
    assert cluster.splits[0].shard_id == 1  # the fat one, despite cold


def test_shard_heat_validates_and_sums_columns():
    cluster = ClusterEngine(num_shards=2, drift_window=None)
    cluster.add_column("a", uniform(20, 4, seed=73), 4,
                       dynamism="fully_dynamic")
    cluster.add_column("b", uniform(20, 4, seed=74), 4,
                       dynamism="fully_dynamic")
    cluster.change("a", 0, 1)
    cluster.change("b", 1, 2)
    cluster.change("b", 15, 3)
    assert cluster.shard_heat(0) == 2
    assert cluster.shard_heat(1) == 1
    import pytest

    with pytest.raises(InvalidParameterError):
        cluster.shard_heat(9)


def test_streaming_gather_prefetch_bound_under_threads():
    """The prefetching bridge widens the accounted bound to the
    documented handoff (two delivered shard answers) and no further,
    at any depth."""
    from repro.cluster import ThreadedExecutor

    n, sigma, shards = 2048, 8, 8
    a = uniform(n, sigma, seed=75)
    b = uniform(n, sigma, seed=76)
    with ThreadedExecutor(4) as pool:
        cluster = ClusterEngine(
            num_shards=shards, drift_window=None, executor=pool,
            prefetch_depth=2,
        )
        cluster.add_column("a", a, sigma)
        cluster.add_column("b", b, sigma)
        conditions = And(Range("a", 0, 6), Range("b", 0, 6))
        cluster.gather_stats.reset()
        got = list(cluster.select_iter(conditions))
        want = [i for i in range(n) if a[i] <= 6 and b[i] <= 6]
        assert got == want and len(want) > n // 2
        max_shard = max(cluster.shard_lengths("a"))
        peak = cluster.gather_stats.peak_rids
        # One draining + one handoff buffer — still O(max shard
        # answer), never O(answer).
        assert peak <= 2 * max_shard
        assert peak < len(want)
        assert cluster.gather_stats.live_rids == 0
