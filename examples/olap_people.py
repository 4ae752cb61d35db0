"""The paper's motivating application, grown into a star-style query.

§1 opens with "find all married men of age 33" — a conjunction of
secondary-index range queries combined by RID intersection.  Real
warehouse queries compose further: IN-lists over dimension columns,
disjunctions of segments, and negations carving out exclusions.  The
predicate algebra (:mod:`repro.query`) expresses all of it as one
AST, planned into a DAG of index range queries and combined by
complement-aware set algebra.

Run:  python examples/olap_people.py
"""

import random

from repro import And, Eq, In, Not, Or, Range, Table

ROWS = 5000
rng = random.Random(2009)  # the year of the paper

print(f"building a {ROWS}-row people table with 4 indexed attributes...")
columns = {
    "age": [rng.randrange(18, 85) for _ in range(ROWS)],
    "sex": [rng.choice(["f", "m"]) for _ in range(ROWS)],
    "status": [
        rng.choice(["divorced", "married", "single", "widowed"])
        for _ in range(ROWS)
    ],
    "city": [rng.choice("abcdefghij") for _ in range(ROWS)],
}
table = Table(columns)

# ----------------------------------------------------------------------
# The classic §1 conjunction, now one composable predicate.
# ----------------------------------------------------------------------
married_men_33 = And(Eq("age", 33), Eq("sex", "m"), Eq("status", "married"))
matches = table.select(married_men_33)
print(f"\nexact:  {len(matches)} married men of age 33")
print(f"first rows: {[table.row(rid) for rid in matches[:2]]}")

# ----------------------------------------------------------------------
# A star-style query: IN-list + disjunction + negation, one AST.
#
#   working-age people in the big-city markets (a, b, c) OR any
#   widowed customer — but never the divorced segment.
# ----------------------------------------------------------------------
star = And(
    Range("age", 25, 64),
    Or(In("city", ["a", "b", "c"]), Eq("status", "widowed")),
    Not(Eq("status", "divorced")),
)
rids = table.select(star)


def matches_star(rid):
    return (
        25 <= columns["age"][rid] <= 64
        and (columns["city"][rid] in "abc" or columns["status"][rid] == "widowed")
        and columns["status"][rid] != "divorced"
    )


assert rids == [rid for rid in range(ROWS) if matches_star(rid)]
print(f"\nstar query: {len(rids)} rows "
      "(age 25-64 AND (city IN (a,b,c) OR widowed) AND NOT divorced)")

# The plan is typed and JSON-serializable: every unique leaf interval,
# its backend verdict, predicted bits, and cache state.
report = table.explain(star)
print("\nthe compiled plan:")
print(report)

# IN-lists compile to *interval runs* via the dictionary: cities
# a, b, c are adjacent codes, so the three-member list costs ONE range
# query, and the whole disjunction shares legs with later queries.
in_leaves = [leaf for leaf in report.leaves if leaf.column == "city"]
print(f"\ncity IN (a,b,c) compiled to {len(in_leaves)} leaf fetch(es)")

# Negation is complement-aware: Not(divorced) never materializes the
# ~75% complement list — the sparse 'divorced' answer is fetched and
# subtracted (or kept complement-represented, §2.1) instead.
not_answer = table.select(Not(Eq("status", "divorced")))
print(f"NOT divorced matches {len(not_answer)} of {ROWS} rows, served "
      "from the sparse leaf")

# Open-ended ranges: either bound may be None.
seniors = table.select(Range("age", 65, None))
print(f"age >= 65: {len(seniors)} rows")

# ----------------------------------------------------------------------
# Approximate filtering (§3) answers the same conjunction from columns
# pinned to Theorem 3's hashed filters.
# ----------------------------------------------------------------------
approx_table = Table(
    {k: columns[k] for k in ("age", "sex", "status")},
    backend="pagh-rao-approx",
)
eps = 1 / 16
candidates = approx_table.select_approximate(
    married_men_33, eps=eps, verify=False
)
verified = approx_table.select_approximate(married_men_33, eps=eps)
print(f"\napproximate (eps = 1/16): {len(candidates)} candidates, "
      f"{len(verified)} after verification")
assert verified == matches, "verification must recover the exact answer"
print("verified answer matches the exact plan  ✓")
