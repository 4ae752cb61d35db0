"""Stateful tests: cross-shard cache invalidation under mixed updates.

The cluster's contract extends the engine's: a shared-cache entry is
never served after an update to *its* shard, while entries of every
other shard stay live and keep serving.  The machine below interleaves
appends, changes, and deletes — routed to shards by global RID — with
repeated (and so cache-hitting) global queries, checking every answer
against a plain-Python model of the per-shard strings.

The model mirrors deletion semantics exactly: a deleted position holds
a ``None`` hole until the shard's backend compacts (which
:class:`~repro.core.deletions.DeletableIndex` does once half the
shard's physical positions are holes), at which point the model shard
compacts with it and all later global RIDs shift — precisely what a
stale cached answer would get wrong.

Shard *splits* interleave with everything else: a split retires the
split shard's stable uid (killing its cached entries) while every
sibling's entries remain keyed by their unchanged uids — so hot
entries must keep serving across the reshape, and no key may ever
reference a retired uid.

Aggregate folds share the cache under fold keys, whose version is the
sum of every read column's version: a ``count``/``exists``/``count_by``
rule asks each fold with whatever the cache holds, then after
``drop_caches`` (a fresh fold at the same versions), so a write to
*either* column must make the cached answer fold again on that shard.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster import ClusterEngine
from repro.cluster.cache import FOLDS
from repro.query import And, Range

SIGMA = 8
NUM_SHARDS = 3
REBUILD_FRACTION = 0.5  # DeletableIndex's default


class ClusterCacheMachine(RuleBasedStateMachine):
    """Two columns over three shards behind one shared result cache."""

    @initialize()
    def setup(self):
        self.cluster = ClusterEngine(num_shards=NUM_SHARDS, drift_window=None)
        dyn = [0, 3, 1, 7, 2, 5, 0, 4, 6, 1, 3, 2]
        dele = [1, 1, 2, 6, 3, 0, 7, 5, 4, 2, 0, 6]
        self.cluster.add_column("dyn", dyn, SIGMA, dynamism="fully_dynamic")
        self.cluster.add_column(
            "del", dele, SIGMA, dynamism="fully_dynamic", require_delete=True
        )
        # Per-shard model strings; "del" shards may hold None holes.
        slices = self.cluster.plan_.slices()
        self.dyn_shards = [dyn[a:b] for a, b in slices]
        self.del_shards = [dele[a:b] for a, b in slices]

    # ------------------------------------------------------------------
    # Model helpers
    # ------------------------------------------------------------------

    def _flat(self, shards):
        out = []
        for shard in shards:
            out.extend(shard)
        return out

    def _expected(self, shards, lo, hi):
        return [
            i
            for i, c in enumerate(self._flat(shards))
            if c is not None and lo <= c <= hi
        ]

    def _route(self, shards, global_pos):
        for shard_id, shard in enumerate(shards):
            if global_pos < len(shard):
                return shard_id, global_pos
            global_pos -= len(shard)
        raise AssertionError("machine routed outside its own model")

    def _live_positions(self, shards):
        return [
            i for i, c in enumerate(self._flat(shards)) if c is not None
        ]

    def _shards(self, name):
        return self.dyn_shards if name == "dyn" else self.del_shards

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
        """Whether every shard holds both columns equally long: only
        then does a fold's row-wise pairing match the global RIDs a
        ``select`` pairs (a compacting delete in ``del`` breaks it)."""
        return all(
            len(d) == len(e) for d, e in zip(self.dyn_shards, self.del_shards)
        )

    # ------------------------------------------------------------------
    # Update rules
    # ------------------------------------------------------------------

    @rule(ch=st.integers(0, SIGMA - 1))
    def append_dyn(self, ch):
        self.cluster.append("dyn", ch)
        self.dyn_shards[-1].append(ch)

    @rule(data=st.data())
    def change_dyn(self, data):
        total = sum(len(s) for s in self.dyn_shards)
        pos = data.draw(st.integers(0, total - 1))
        ch = data.draw(st.integers(0, SIGMA - 1))
        self.cluster.change("dyn", pos, ch)
        shard_id, local = self._route(self.dyn_shards, pos)
        self.dyn_shards[shard_id][local] = ch

    @rule(ch=st.integers(0, SIGMA - 1))
    def append_del(self, ch):
        self.cluster.append("del", ch)
        self.del_shards[-1].append(ch)

    @rule(data=st.data())
    def change_del(self, data):
        live = self._live_positions(self.del_shards)
        if not live:
            return
        pos = data.draw(st.sampled_from(live))
        ch = data.draw(st.integers(0, SIGMA - 1))
        self.cluster.change("del", pos, ch)
        shard_id, local = self._route(self.del_shards, pos)
        self.del_shards[shard_id][local] = ch

    @rule(data=st.data())
    def delete_del(self, data):
        live = self._live_positions(self.del_shards)
        if not live:
            return
        pos = data.draw(st.sampled_from(live))
        self.cluster.delete("del", pos)
        shard_id, local = self._route(self.del_shards, pos)
        shard = self.del_shards[shard_id]
        shard[local] = None
        # Mirror the backend's global rebuild: once holes reach the
        # rebuild fraction of the shard's physical length, it compacts
        # and every later global RID shifts down.
        holes = sum(1 for c in shard if c is None)
        if holes >= REBUILD_FRACTION * max(1, len(shard)):
            self.del_shards[shard_id] = [c for c in shard if c is not None]

    @rule(data=st.data())
    def split_a_shard(self, data):
        """Lifecycle reshapes interleaved with the update traffic: the
        split compacts pending holes (like any rebuild) and retires
        the shard's uid, which the invariants below then audit."""
        candidates = [
            sid
            for sid in range(len(self.dyn_shards))
            if sum(1 for c in self.dyn_shards[sid] if c is not None) >= 2
            and sum(1 for c in self.del_shards[sid] if c is not None) >= 2
        ]
        if not candidates:
            return
        sid = data.draw(st.sampled_from(candidates))
        self.cluster.split_shard(sid)
        for shards in (self.dyn_shards, self.del_shards):
            live = [c for c in shards[sid] if c is not None]
            mid = len(live) // 2
            shards[sid : sid + 1] = [live[:mid], live[mid:]]

    # ------------------------------------------------------------------
    # Query rules (the second ask is the cache-hitting one)
    # ------------------------------------------------------------------

    @rule(data=st.data())
    def query_twice(self, data):
        name, shards = data.draw(
            st.sampled_from(
                [("dyn", self.dyn_shards), ("del", self.del_shards)]
            )
        )
        lo = data.draw(st.integers(0, SIGMA - 1))
        hi = data.draw(st.integers(lo, SIGMA - 1))
        want = self._expected(shards, lo, hi)
        assert self.cluster.query(name, lo, hi).positions() == want
        assert self.cluster.query(name, lo, hi).positions() == want

    @rule(data=st.data())
    def conjunctive_select(self, data):
        # Both columns share the RID space only while equally long;
        # the engine intersects whatever each dimension reports.
        lo = data.draw(st.integers(0, SIGMA - 2))
        dyn = set(self._expected(self.dyn_shards, lo, lo + 1))
        dele = set(self._expected(self.del_shards, 0, 3))
        want = sorted(dyn & dele)
        got = self.cluster.select(
            And(Range("dyn", lo, lo + 1), Range("del", 0, 3))
        )
        assert got == want

    @rule(
        data=st.data(),
        bounds=st.sampled_from([(1, 4), (3, 7)]),  # few plans: they repeat
    )
    def folds_match_fresh_folds(self, data, bounds):
        group = data.draw(st.sampled_from(["dyn", "del"]))
        other = "del" if group == "dyn" else "dyn"
        # lo >= 1: a full range normalizes to TRUE, which counts
        # deleted slots.
        lo, hi = bounds
        glo = data.draw(st.sampled_from([2, 5]))
        pred = Range(other, lo, hi)
        both = And(pred, Range(group, glo, SIGMA - 1))
        asks = (
            lambda: self.cluster.count(pred),
            lambda: self.cluster.exists(pred),
            lambda: self.cluster.count_by(group, pred),
            lambda: self.cluster.count(both),
        )
        # With whatever the cache holds (entries stored before the
        # latest writes included), then cold — a fresh fold at the
        # same versions — then from what the cold pass stored.
        cached = [ask() for ask in asks]
        self.cluster.drop_caches()
        fresh = [ask() for ask in asks]
        assert cached == fresh
        assert [ask() for ask in asks] == fresh
        want = len(self._expected(self._shards(other), lo, hi))
        assert fresh[:2] == [want, want > 0]
        if self._aligned():
            codes = list(self._row_pairs(group, other, lo, hi))
            assert fresh[2] == dict(Counter(codes))
            assert fresh[3] == sum(1 for c in codes if c >= glo)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def model_and_cluster_agree_on_shard_lengths(self):
        for name, shards in (
            ("dyn", self.dyn_shards),
            ("del", self.del_shards),
        ):
            assert self.cluster.shard_lengths(name) == [
                len(s) for s in shards
            ]

    @invariant()
    def cached_entries_reference_current_versions(self):
        # The invalidation protocol: a write evicts nothing, but its
        # version bump leaves the old keys behind the shard's version
        # (versions only grow, so they are never looked up again).
        # Keys carry stable uids and a split drops the retired uid's
        # entries eagerly, so none may reference a retired shard.
        uids = self.cluster.shard_uids
        for key in list(self.cluster.shared_cache.store._lru._data):
            name, uid, epoch, version = key[0], key[1], key[2], key[3]
            assert uid in uids
            position = uids.index(uid)
            if name == FOLDS:
                # A fold key's digest hides which columns it read; the
                # sum of their versions cannot pass the sum of all.
                current = sum(
                    self.cluster.shard_column(col, position).version
                    for col in self.cluster.columns
                )
            else:
                assert epoch == self.cluster.columns[name].epoch
                current = self.cluster.shard_column(name, position).version
            assert version <= current

    @invariant()
    def full_range_matches(self):
        for name, shards in (
            ("dyn", self.dyn_shards),
            ("del", self.del_shards),
        ):
            got = self.cluster.query(name, 0, SIGMA - 1).positions()
            assert got == self._expected(shards, 0, SIGMA - 1)


TestClusterCacheMachine = ClusterCacheMachine.TestCase
TestClusterCacheMachine.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)


def test_interleaved_updates_never_serve_stale_rids():
    """Deterministic companion to the machine: heavy interleaving with
    repeated hot queries, proving the hits are real and never stale."""
    cluster = ClusterEngine(num_shards=4, drift_window=None)
    base = [(3 * i + 1) % SIGMA for i in range(40)]
    cluster.add_column(
        "c", base, SIGMA, dynamism="fully_dynamic", require_delete=True
    )
    shards = [
        base[a:b] for a, b in cluster.plan_.slices()
    ]

    def flat():
        return [c for shard in shards for c in shard]

    stale = 0
    for step in range(120):
        lo, hi = step % 4, step % 4 + 3
        want = [
            i for i, c in enumerate(flat()) if c is not None and lo <= c <= hi
        ]
        for _ in range(2):  # the second answer is served from cache
            if cluster.query("c", lo, hi).positions() != want:
                stale += 1
        kind = step % 3
        if kind == 0:
            cluster.append("c", step % SIGMA)
            shards[-1].append(step % SIGMA)
        elif kind == 1:
            live = [i for i, c in enumerate(flat()) if c is not None]
            pos = live[(step * 7) % len(live)]
            cluster.change("c", pos, (step * 5) % SIGMA)
            acc = 0
            for shard in shards:
                if pos < acc + len(shard):
                    shard[pos - acc] = (step * 5) % SIGMA
                    break
                acc += len(shard)
        else:
            live = [i for i, c in enumerate(flat()) if c is not None]
            pos = live[(step * 11) % len(live)]
            cluster.delete("c", pos)
            acc = 0
            for idx, shard in enumerate(shards):
                if pos < acc + len(shard):
                    shard[pos - acc] = None
                    holes = sum(1 for c in shard if c is None)
                    if holes >= REBUILD_FRACTION * max(1, len(shard)):
                        shards[idx] = [c for c in shard if c is not None]
                    break
                acc += len(shard)
    assert stale == 0
    assert cluster.shared_cache.hits > 50  # the hot path really was hot
