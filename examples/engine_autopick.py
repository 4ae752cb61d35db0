"""The query engine picks each column's index — and explains itself.

The paper's point is that one interface admits many structures with
different space/time trade-offs, and the right one depends on the
column: cardinality, entropy, and update pattern.  The engine measures
each column, consults the registry's declared cost bounds, builds the
winner, and serves cached conjunctive queries.

Run:  python examples/engine_autopick.py
"""

import random

from repro import QueryEngine
from repro.query import And, Range

rng = random.Random(7)
N = 2000

# Three columns with very different characters:
#  * status  — 4 distinct values (low cardinality -> bitmap family)
#  * user_id — 256 distinct values, near-maximal entropy, still well
#    below n (high entropy -> Pagh-Rao family)
#  * event   — append-heavy log column (needs a dynamic structure)
status = [rng.randrange(4) for _ in range(N)]
user_id = [rng.randrange(256) for _ in range(N)]
event = [rng.randrange(8) for _ in range(N)]

engine = QueryEngine(cache_size=128)
engine.add_column("status", status, 4)
engine.add_column("user_id", user_id, 256)
engine.add_column("event", event, 8, dynamism="semidynamic")

# 1. What did the advisor decide, and why?
print(engine.explain())
print()
print(engine.explain("status"))
print()

# 2. plan() reports which index and bound serves a query — no I/O yet.
plan = engine.plan("user_id", 50, 150)
print("plan:", plan.describe())

# 3. Batched conjunctive select: status=2 AND user_id in [50, 150].
pred = And(Range("status", 2, 2), Range("user_id", 50, 150))
rids = engine.select(pred)
print(f"matching rows: {len(rids)} (first five: {rids[:5]})")

# 4. Ask again: every dimension now comes from the LRU result cache.
engine.select(pred)
print(f"cache after repeat: {engine.cache.hits} hits, "
      f"{engine.cache.misses} misses")
print("plan now:", engine.plan("user_id", 50, 150).describe())

# 5. Updates invalidate exactly the touched column's cached results.
before = engine.query("event", 3, 3).cardinality
engine.append("event", 3)
after = engine.query("event", 3, 3).cardinality
print(f"event==3 before append: {before}, after: {after}")
assert after == before + 1  # never a stale cached answer
