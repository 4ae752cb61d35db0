"""Seeded inputs for the three traffic mixes, plus the brute-force oracle.

Nothing here imports ``repro``: rows, operations and probes are plain
tuples generated from the seed before any timing starts, and the
oracle answers them by scanning the generated rows.  ``run.py``
converts the predicate tuples into ``repro.query`` predicates.

Predicate tuples::

    ("range", column, lo, hi)       inclusive code range
    ("in", column, (code, ...))
    ("and", (part, ...)) / ("or", (part, ...)) / ("not", part)

Operation tuples::

    ("count", pred)  ("select", pred)
    ("count_by", group, pred)  ("topk", group, pred, k)
    ("row", status, region, price)          one append per column
    ("change", column, rid, code)
    ("ack", (rid, ...))                     set ``ack`` to 1 on each row
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

SIGMA = {"status": 6, "region": 64, "price": 4096, "ack": 2}
READS = ("count", "select", "count_by", "topk")
WRITES = ("row", "change", "ack")


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the table it runs on."""

    name: str
    rows: int
    clients: int
    #: Nominal measured ops per requested second: the op count of a
    #: run is ``rate * seconds``, fixed before timing starts, so a run
    #: takes about ``seconds`` on the reference host and the same seed
    #: and seconds always issue the same operations.
    rate: float
    #: Measured ops per segment: short segments let the host-speed
    #: reference follow the vCPUs' state changes (see ``host.py``).
    window_ops: int
    num_shards: int | None = None
    target_shard_rows: int | None = None
    #: True: ``status`` is fully dynamic, ``region``/``price`` are
    #: semidynamic, and the measured ops are the write mix.  False: the
    #: three columns are static and an ``ack`` column (fully dynamic,
    #: sigma 2) takes the durable write tail after the read window.
    ingest: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dashboard-zipf", rows=60_000, clients=2, rate=120.0,
                 window_ops=24, num_shards=8),
        Workload("adhoc-scan", rows=60_000, clients=1, rate=60.0,
                 window_ops=4, num_shards=8),
        Workload("ingest-durable", rows=5_900, clients=1, rate=90.0,
                 window_ops=10, target_shard_rows=2_000, ingest=True),
    )
}

#: Untimed write tail of the read-only workloads: acknowledgements
#: (``change`` on ``ack``) with one checkpoint half way.
TAIL_WRITES = 480
ACK_BATCH = 4
ZIPF_THETA = 1.0


def _zipf_sampler(rng: random.Random, size: int, theta: float):
    cum = list(_cumulative([1.0 / (r + 1) ** theta for r in range(size)]))
    total = cum[-1]
    return lambda: bisect.bisect_left(cum, rng.random() * total)


def _cumulative(weights):
    s = 0.0
    for w in weights:
        s += w
        yield s


#: Price codes from here up never occur in generated rows: ingest
#: appends draw "fresh" prices from them (see ``ingest_ops``).
FRESH_BASE = 3584
#: Prices below this occur in every shard of every table here.
HOT_PRICES = 8


def _price(rng: random.Random) -> int:
    # Log-uniform: many cheap items, a long thin tail of dear ones.
    return int(math.exp(rng.uniform(0, math.log(FRESH_BASE)))) - 1


def make_rows(w: Workload, seed: int) -> dict[str, list[int]]:
    rng = random.Random(f"rows/{w.name}/{seed}")
    status = _zipf_sampler(rng, SIGMA["status"], ZIPF_THETA)
    cols = {"status": [], "region": [], "price": []}
    for _ in range(w.rows):
        cols["status"].append(status())
        cols["region"].append(rng.randrange(SIGMA["region"]))
        cols["price"].append(_price(rng))
    if not w.ingest:
        cols["ack"] = [0] * w.rows
    return cols


#: Dashboard tiles share these price bands and status sets, so the
#: pool's leaves (about 100 per shard, 64 of them the region codes
#: ``topk`` folds over) fit the 128-entry engine LRU.
BANDS = tuple(
    (lo, 2 * lo + 1)
    for lo in (1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 1535, 2047)
)
STATUS_SETS = tuple(
    (a,) if a == b else (a, b) for a in range(6) for b in range(a, 6)
)


def dashboard_pool() -> tuple[list[tuple], int]:
    """The dashboard's tiles, hottest first, and how many are warmed.

    The pool and its popularity order are the same for every seed: the
    first few ranks take most of a Zipf(1) mix, so a seed-chosen order
    would make one run's traffic all ``topk`` and the next all
    ``count``.  The seed drives the rows and the request order.  The
    warmed head uses every other price band; the cold tail alone uses
    the rest, so the leaves it reads on first view, and with them the
    run's bits read, are the same set for every seed.
    """
    warm = [("count", ("in", "status", s)) for s in STATUS_SETS]
    warm += [("topk", "region", ("in", "status", s), 5) for s in STATUS_SETS]
    cold = []
    for k, (lo, hi) in enumerate(BANDS):
        band = ("range", "price", lo, hi)
        group = cold if k % 2 else warm
        group.append(("count_by", "status", band))
        group += [
            ("count", ("and", (band, ("in", "status", s))))
            for s in STATUS_SETS
        ]
        group += [
            ("select", ("and", (
                ("range", "price", hi, hi), ("in", "status", (s,)),
                ("range", "region", 8 * s, 8 * s + 7),
            )))
            for s in range(0, SIGMA["status"], 2)
        ]
    rng = random.Random("pool")
    rng.shuffle(warm)
    rng.shuffle(cold)
    return warm + cold, len(warm)


def dashboard_ops(seed: int, count: int) -> list[tuple]:
    """``count`` tile requests with exact Zipf(1) frequencies, seed-shuffled.

    Each tile is requested its Zipf share of ``count`` times (largest
    remainders round), so every seed issues the same multiset of
    requests; independent draws would swing the share of the costly
    ``topk``/``count_by`` tiles from seed to seed.
    """
    pool, _warm = dashboard_pool()
    weights = [1.0 / (r + 1) ** ZIPF_THETA for r in range(len(pool))]
    total = sum(weights)
    quotas = [count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(pool)), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[: count - sum(counts)]:
        counts[r] += 1
    ops = [pool[r] for r, n in enumerate(counts) for _ in range(n)]
    random.Random(f"dash/{seed}").shuffle(ops)
    return ops


def _price_leg(rng: random.Random) -> tuple:
    # Random bounds, about 2.7% of rows, clear of the dense cheap end
    # where few distinct codes would make legs repeat.
    lo = int(math.exp(rng.uniform(math.log(128), math.log(FRESH_BASE / 1.3))))
    return ("range", "price", lo, int(lo * rng.uniform(1.2, 1.3)))


def _region_leg(rng: random.Random) -> tuple:
    width = rng.randint(8, 24)
    lo = rng.randrange(SIGMA["region"] - width)
    return ("range", "region", lo, lo + width - 1)


def adhoc_ops(seed: int, count: int, tag: str = "adhoc") -> list[tuple]:
    """Fresh predicates: random price bounds with region or status legs.

    Even ops are selects, odd ops counts, and the shape rotates: a
    price leg ``And`` a region (selects) or status (counts) leg, a
    price leg ``And Not`` another leg, and an ``Or`` of two such
    conjunctions.  Selects negate and ``Or`` price legs rather than
    region legs, which come from a few hundred ranges and would repeat
    in the shared result cache; status legs fold inside the workers.
    Every price leg holds about the same share of rows and the status
    code rotates, so each seed asks for the same amount of work.
    """
    rng = random.Random(f"{tag}/{seed}")
    ops = []
    for i in range(count):
        select = i % 2 == 0
        turn = i // 2

        def leg(k):
            if select:
                return _price_leg(rng)
            return ("in", "status", ((turn + k) % SIGMA["status"],))

        shape = turn % 3
        if shape == 0:
            other = _region_leg(rng) if select else leg(0)
            pred = ("and", (_price_leg(rng), other))
        elif shape == 1:
            pred = ("and", (_price_leg(rng), ("not", leg(0))))
        else:
            pred = ("or", (
                ("and", (_price_leg(rng), leg(0))),
                ("and", (_price_leg(rng), leg(3))),
            ))
        ops.append(("select" if select else "count", pred))
    return ops


#: The ingest cycle.  Each count follows the write(s) it reads back,
#: and the shares keep the percentiles off the boundaries between
#: latency modes: of the writes, 1/6 are changes, 4/6 hot-price rows
#: and 1/6 fresh-price rows (the rebuilds); of the counts, 3/5 follow
#: a hot row, 1/5 a hot row and a change, 1/5 a fresh row.
INGEST_CYCLE = (
    "row", "count", "row", "count", "row", "count",
    "row", "change", "count", "fresh", "count",
)


def ingest_ops(seed: int, count: int, rows: int) -> list[tuple]:
    """Row appends, status changes and counts, in ``INGEST_CYCLE`` order.

    Counts target the codes of the row just appended (read-your-writes
    on the growing last shard); changes pick any existing row.  A
    ``fresh`` row carries a price no row had before, which rebuilds the
    last shard's appendable ``price`` index; the other rows carry hot
    prices every shard holds.  So the rebuild count, and with it most
    of the write cost, is the same for every seed.
    """
    rng = random.Random(f"ingest/{seed}")
    fresh = list(range(FRESH_BASE, SIGMA["price"]))
    rng.shuffle(fresh)
    ops = []
    last = None
    n = rows
    used = 0
    for i in range(count):
        kind = INGEST_CYCLE[i % len(INGEST_CYCLE)]
        if kind in ("row", "fresh"):
            if kind == "fresh":
                price = fresh[used % len(fresh)]
                used += 1
            else:
                price = rng.randrange(HOT_PRICES)
            last = (rng.randrange(SIGMA["status"]),
                    rng.randrange(SIGMA["region"]), price)
            ops.append(("row",) + last)
            n += 1
        elif kind == "change":
            ops.append(("change", "status", rng.randrange(n),
                        rng.randrange(SIGMA["status"])))
        else:
            s, _r, p = last
            ops.append(("count", ("and", (
                ("range", "price", p, p), ("in", "status", (s,)),
            ))))
    return ops


def tail_ops(seed: int, rows: int, shards: int) -> list[tuple]:
    """Operators acknowledge batches of rows of the newest shard.

    One write sets ``ack`` on ``ACK_BATCH`` rows.  The fully dynamic
    index alternates cheap buffered changes with buffer flushes, so a
    single change's latency is bimodal and its median flips between
    the modes from seed to seed; a batch spans both.  One shard takes
    every change, so the flush cadence is the same for every seed.
    """
    rng = random.Random(f"tail/{seed}")
    first = rows - rows // shards
    return [
        ("ack", tuple(rng.randrange(first, rows) for _ in range(ACK_BATCH)))
        for _ in range(TAIL_WRITES)
    ]


def probes(seed: int, ingest: bool) -> list[tuple]:
    """The restore probe battery: answered before shutdown and after."""
    rng = random.Random(f"probe/{seed}")
    out = [op for op in adhoc_ops(seed, 16, tag="probe")[1::2]]
    out.append(("select", ("and", (_price_leg(rng), ("in", "status", (1,))))))
    out.append(("count_by", "status", _price_leg(rng)))
    if not ingest:
        out.append(("count", ("in", "ack", (1,))))
    return out


# ----------------------------------------------------------------------
# The brute-force oracle
# ----------------------------------------------------------------------


class Oracle:
    """Answers operations by scanning the rows; applies writes."""

    def __init__(self, cols: dict[str, list[int]]) -> None:
        self.cols = {name: list(codes) for name, codes in cols.items()}
        self._leaves: dict[tuple, frozenset] = {}

    @property
    def n(self) -> int:
        return max(len(codes) for codes in self.cols.values())

    def apply(self, op: tuple) -> None:
        if op[0] == "row":
            for name, code in zip(("status", "region", "price"), op[1:]):
                self.cols[name].append(code)
        elif op[0] == "ack":
            for rid in op[1]:
                self.cols["ack"][rid] = 1
        else:
            _, name, rid, code = op
            self.cols[name][rid] = code
        self._leaves.clear()

    def rids(self, pred: tuple) -> frozenset:
        kind = pred[0]
        if kind in ("range", "in"):
            found = self._leaves.get(pred)
            if found is None:
                codes = self.cols[pred[1]]
                if kind == "range":
                    lo, hi = pred[2], pred[3]
                    found = frozenset(i for i, c in enumerate(codes) if lo <= c <= hi)
                else:
                    wanted = set(pred[2])
                    found = frozenset(i for i, c in enumerate(codes) if c in wanted)
                self._leaves[pred] = found
            return found
        if kind == "and":
            return frozenset.intersection(*(self.rids(p) for p in pred[1]))
        if kind == "or":
            return frozenset.union(*(self.rids(p) for p in pred[1]))
        if kind == "not":
            return frozenset(range(self.n)) - self.rids(pred[1])
        raise ValueError(f"unknown predicate {kind!r}")

    def answer(self, op: tuple):
        kind = op[0]
        if kind == "count":
            return len(self.rids(op[1]))
        if kind == "select":
            return sorted(self.rids(op[1]))
        groups = self._group_counts(op[1], op[2])
        if kind == "count_by":
            return groups
        return sorted(groups.items(), key=lambda kv: (-kv[1], kv[0]))[: op[3]]

    def _group_counts(self, group: str, pred: tuple) -> dict[int, int]:
        codes = self.cols[group]
        counts: dict[int, int] = {}
        for rid in self.rids(pred):
            counts[codes[rid]] = counts.get(codes[rid], 0) + 1
        return counts


def normalize_answer(op: tuple, value):
    """Program answers in the oracle's shape (zero groups dropped)."""
    kind = op[0]
    if kind == "select":
        return list(value)
    if kind == "count_by":
        return {code: n for code, n in value.items() if n}
    if kind == "topk":
        return [(code, n) for code, n in value if n]
    return value


def log2_binomial(n: int, k: int) -> float:
    """log2 C(n, k): the bits needed to write down a k-subset of n rows."""
    if k <= 0 or k >= n:
        return 0.0
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)
