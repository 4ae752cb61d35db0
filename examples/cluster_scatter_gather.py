"""Sharded serving: one table, many engines, one shared cache.

The single-process engine picks one backend per column; the cluster
goes further — it splits every column into contiguous RID-range
shards, lets the advisor judge *each shard's slice* (so one column may
be served by different structures in different shards), scatters every
query across shards, and gathers offset-translated global row ids.
Both layers serve the same predicate algebra (:mod:`repro.query`):
any Range/Eq/In/And/Or/Not tree compiles once; each shard evaluates
the whole plan on its own slice, and its answer is cached per shard
and per plan in the versioned shared result cache.

Run:  python examples/cluster_scatter_gather.py
"""

import random

from repro import And, In, Not, Or, Range, Table

rng = random.Random(42)
N = 4000

# A "people" table whose income column changes character halfway
# through: the first half of the rows comes from a legacy system that
# bucketed incomes into 4 bands, the second half stores exact dollars.
incomes = [25_000 * (1 + rng.randrange(4)) for _ in range(N // 2)] + [
    20_000 + 500 * rng.randrange(256) for _ in range(N // 2)
]
cities = [rng.choice("abcdefgh") for _ in range(N)]

table = Table.sharded(
    {"income": incomes, "city": cities}, num_shards=2, dynamism="static"
)

# 1. Each shard was measured on its own slice: one column, possibly
#    two backends.
print(table.explain("income"))
print()

# 2. Scatter-gather select over one composable predicate: mid-income
#    rows in the coastal markets, or any top earner outside market h —
#    IN-lists, a disjunction, and a negation in a single AST.
pred = And(
    Or(
        And(Range("income", 25_000, 60_000), In("city", ["a", "b"])),
        Range("income", 120_000, None),
    ),
    Not(In("city", ["h"])),
)
rids = table.select(pred)
print(f"{len(rids)} rows match the star predicate; first 10: {rids[:10]}")
print()

# 3. A repeat is answered by the shared result cache — per shard, per
#    plan, per column version — without touching any shard.  A new
#    plan that shares a leg with an earlier one still reuses it inside
#    each shard, from the shard engine's own cache.
table.select(pred)
cache = table.engine.shared_cache
print(f"shared cache: {cache.hits} hits / {cache.misses} misses "
      f"({cache.hit_rate:.0%})")
shard_hits = sum(shard.cache.hits for shard in table.engine.shards)
table.select(Range("income", 25_000, 60_000))  # a leg the OR already paid
print(f"reused a cached leg: shard caches at "
      f"{sum(shard.cache.hits for shard in table.engine.shards)} hits "
      f"(were {shard_hits})")
print()

# 4. The same predicate, explained end to end: one typed,
#    JSON-serializable PlanReport — operator tree, per-leaf shard
#    fan-out, backend verdicts, predicted bits, cache state.
report = table.explain(pred)
print(report)
print()
import json  # noqa: E402

payload = json.dumps(report.to_dict())
print(f"…and the same report as {len(payload)} bytes of JSON")
print()

# 5. Huge answers stream: each shard folds the plan, and the stream
#    yields global row ids one at a time, holding one shard's answer.
#    (A fully open range would fold to TRUE and skip the indexes
#    entirely; ask for a real majority range instead.)
first_ten = []
for rid in table.select_iter(Range("income", 25_000, None)):
    first_ten.append(rid)
    if len(first_ten) == 10:
        break  # the remaining shards are never even folded
print(f"streamed the first 10 of a huge answer: {first_ten}")
peak = table.engine.gather_stats.peak_rids
print(f"peak buffered row ids while streaming: {peak} (of {N} rows)")
print()

# 6. Growth management: rebalance the same data to a row target —
#    shards split in place, the advisor re-judges every new slice,
#    and answers are bit-identical before and after.
before = table.select(pred)
ops = table.engine.rebalance(target_shard_rows=500)
assert table.select(pred) == before
print(f"rebalanced with {ops} lifecycle op(s) -> "
      f"{table.engine.num_shards} shards; answers unchanged")
print()

# 7. The same table, served by worker-resident shard engines: each
#    shard's engine lives in a worker process (built once from a
#    shipped snapshot, kept in sync by batched routed deltas), and a
#    predicate ships to each shard as ONE fold message carrying the
#    whole compiled plan — bit-identical to the serial run.
from repro.cluster import ProcessExecutor  # noqa: E402

with ProcessExecutor(max_workers=2) as pool:
    resident = Table.sharded(
        {"income": incomes, "city": cities}, num_shards=4, executor=pool
    )
    assert resident.select(pred) == table.select(pred)
    io = resident.engine.scatter_io
    print(f"process-parallel predicate select matches; scatter read "
          f"{io.bits_read} bits across 2 workers")
    resident.engine.close()
