"""E9 — RID intersection for multi-dimensional queries (§1, §3).

The paper's motivating application: conjunctive range queries answered
by intersecting per-dimension secondary indexes — "find all married men
of age 33" — and its approximate variant where a row matching only k of
d conditions survives all filters with probability <= eps^(d-k).
"""

import random

import pytest

from repro.bench import ratio
from repro.queries import Table, approximate_factory
from repro.query import And, Range

ROWS = 4000


@pytest.fixture(scope="module")
def people():
    rng = random.Random(40)
    columns = {
        "age": [rng.randrange(18, 82) for _ in range(ROWS)],
        "sex": [rng.choice(["f", "m"]) for _ in range(ROWS)],
        "status": [
            rng.choice(["divorced", "married", "single", "widowed"])
            for _ in range(ROWS)
        ],
        "income": [rng.randrange(0, 200) * 1000 for _ in range(ROWS)],
    }
    exact = Table(columns)
    approx = Table(columns, factory=approximate_factory(seed=5))
    return columns, exact, approx


CONDITIONS = {
    "d=2": {"age": (33, 33), "sex": ("m", "m")},
    "d=3": {"age": (33, 33), "sex": ("m", "m"), "status": ("married", "married")},
    "d=4": {
        "age": (33, 33),
        "sex": ("m", "m"),
        "status": ("married", "married"),
        "income": (50_000, 120_000),
    },
}


def conjunction(conds):
    """The exact-select predicate of one approximate-API mapping."""
    return And(*(Range(c, lo, hi) for c, (lo, hi) in conds.items()))


def test_e9_exact_intersection(people, report, benchmark):
    columns, exact, _ = people
    rows = []
    for label, conds in CONDITIONS.items():
        got = exact.select(conjunction(conds))
        brute = [
            rid
            for rid in range(ROWS)
            if all(lo <= columns[c][rid] <= hi for c, (lo, hi) in conds.items())
        ]
        rows.append([label, len(conds), len(got), got == brute])
    report.table(
        "E9a  exact RID intersection ('married men of age 33', %d rows)" % ROWS,
        ["query", "dims", "matches", "equals brute force"],
        rows,
    )
    benchmark(lambda: exact.select(conjunction(CONDITIONS["d=3"])))


def test_e9_approximate_filtering(people, report, benchmark):
    columns, exact, approx = people
    eps = 1 / 16
    rows = []
    for label, conds in CONDITIONS.items():
        truth = set(exact.select(conjunction(conds)))
        candidates = approx.select_approximate(conds, eps=eps, verify=False)
        verified = approx.select_approximate(conds, eps=eps, verify=True)
        false_cands = len(candidates) - len(truth & set(candidates))
        rows.append(
            [
                label,
                len(truth),
                len(candidates),
                false_cands,
                sorted(verified) == sorted(truth),
            ]
        )
    report.table(
        "E9b  approximate filters (eps=1/16): candidates vs truth",
        ["query", "true matches", "candidates", "false candidates",
         "verified == truth"],
        rows,
        note="more dimensions multiply each false candidate's survival "
        "probability by eps; verification against the table recovers "
        "the exact answer (§1.1).",
    )
    benchmark(lambda: approx.select_approximate(CONDITIONS["d=3"], eps=eps))


def test_e9_filtering_rate_vs_dimensions(people, report, benchmark):
    # Survival of non-matching rows ~ eps^(d-k): measure rows matching
    # exactly k of d conditions that survive all d filters.
    columns, exact, approx = people
    eps = 1 / 8
    conds = CONDITIONS["d=3"]
    names = list(conds)
    match_count = {}
    for rid in range(ROWS):
        k = sum(
            1 for c in names if conds[c][0] <= columns[c][rid] <= conds[c][1]
        )
        match_count[rid] = k
    candidates = set(approx.select_approximate(conds, eps=eps, verify=False))
    rows = []
    for k in (0, 1, 2, 3):
        pool = [rid for rid, kk in match_count.items() if kk == k]
        if not pool:
            continue
        survived = sum(1 for rid in pool if rid in candidates)
        expected = eps ** (3 - k)
        rows.append(
            [k, len(pool), survived, f"{survived / len(pool):.4f}",
             f"{expected:.4f}"]
        )
    report.table(
        "E9c  survival rate of rows matching k of d=3 conditions (eps=1/8)",
        ["k matched", "rows", "survived", "measured rate", "eps^(d-k)"],
        rows,
        note="§1.1: 'the probability that it will be reported by all d "
        "approximate range queries is at most eps^(d-k)'.",
    )
    benchmark(
        lambda: approx.select_approximate(conds, eps=eps, verify=False)
    )
