"""Approximate high-dimensional range search (§1, §3).

Beyond conjunctions, one-dimensional secondary indexes answer queries
multi-dimensional structures cannot touch at d >> 3 (§1): *approximate
range search* ("in range in at least d1 of d dimensions") and *partial
match*.  This example runs all three query families on a Table whose
columns are pinned to Theorem 3's filters (``pagh-rao-approx``), where
a condition matching z rows costs only O(z lg(1/eps)) bits.  The
filters' candidates are cross-checked in O(1) per dimension, then
verified against the column codes, which recovers the exact answer.

Run:  python examples/approximate_search.py
"""

import random

from repro import And, Range, Table
from repro.core import ApproximateResult

D = 6          # dimensions — beyond range trees' comfort zone (§1)
N = 4000       # points
SIGMA = 256    # per-dimension alphabet
EPS = 1 / 4

rng = random.Random(13)
print(f"{N} points in {D} dimensions, alphabet {SIGMA} per dimension")

# Random points; a planted cluster guarantees interesting answers.
points = [[rng.randrange(SIGMA) for _ in range(D)] for _ in range(N)]
for i in range(12):
    points[i] = [8 + rng.randrange(2) for _ in range(D)]

names = [f"x{d}" for d in range(D)]
table = Table(
    {names[d]: [p[d] for p in points] for d in range(D)},
    backend="pagh-rao-approx",
)
box = [(8, 9)] * D  # the query box around the cluster
conditions = [Range(names[d], *box[d]) for d in range(D)]


def dims_inside(i):
    return sum(1 for d in range(D) if box[d][0] <= points[i][d] <= box[d][1])


# Each condition matches few enough rows that its filter is hashed.
engaged = sum(
    isinstance(
        table.engine.column(name).index.approx_range_query(
            *table.column(name).code_range(*box[d]), EPS
        ),
        ApproximateResult,
    )
    for d, name in enumerate(names)
)
print(f"filters: {engaged}/{D} take the hashed (cheap) path")

# ----------------------------------------------------------------------
# 1. Full-box query (all d dimensions), verified.
# ----------------------------------------------------------------------
full_box = And(*conditions)
candidates = table.select_approximate(full_box, EPS, verify=False)
verified = table.select_approximate(full_box, EPS)
truth = [i for i in range(N) if dims_inside(i) == D]
print(f"\nfull box: {len(truth)} true matches, "
      f"{len(candidates)} candidates, verified -> {len(verified)}")
assert set(truth) <= set(candidates) and verified == truth

# ----------------------------------------------------------------------
# 2. Approximate range search: inside in >= d1 of d dimensions (§1).
# ----------------------------------------------------------------------
d1 = 4
candidates = table.select_at_least(d1, conditions, eps=EPS, verify=False)
verified = table.select_at_least(d1, conditions, eps=EPS)
truth = [i for i in range(N) if dims_inside(i) >= d1]
print(f"\n'>= {d1} of {D} dims' search: {len(truth)} true, "
      f"{len(candidates)} candidates "
      f"({len(set(candidates) - set(truth))} false)")
assert set(truth) <= set(candidates) and verified == truth
assert table.select_at_least(d1, conditions) == truth  # the exact path

# ----------------------------------------------------------------------
# 3. Partial match: conditions on d1 << d given dimensions (§1).
# ----------------------------------------------------------------------
chosen = [0, 3]
partial = And(*(conditions[d] for d in chosen))
candidates = table.select_approximate(partial, EPS, verify=False)
truth = [
    i
    for i in range(N)
    if all(box[d][0] <= points[i][d] <= box[d][1] for d in chosen)
]
print(f"\npartial match on dims {chosen}: {len(truth)} true, "
      f"{len(candidates)} candidates")
assert set(truth) <= set(candidates)
assert table.select_approximate(partial, EPS) == truth

print("\nall three §1 query families answered from the same 1-D filters ✓")
