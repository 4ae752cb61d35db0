"""Paired E21 ledger runs of two trees, summarized by the pair protocol.

Usage (from the repository root)::

    python tools/ledger_pairs.py --parent DIR --change DIR \\
        --workload dashboard-zipf --seeds 1-10

``DIR`` is a full checkout of each tree (make the parent's copy with
``git archive``).  Neither tree may hold a ``__pycache__`` directory
under ``src/`` or ``perfbench/``: with ``PYTHONDONTWRITEBYTECODE`` set
the ledger never writes bytecode, so a tree that ran the test suite
imports compiled modules while a fresh copy compiles every module on
every run, which moves ``peak_rss_mb`` by megabytes.  The tool refuses
such a tree before any run, naming the side and the first directory
found.  Every seed runs once in each tree, through that
tree's own ``perfbench/run.py`` as ``BENCHMARK.json`` names it, with
``--trace 0`` and the file's ``run_seconds``; the side that runs first
alternates from seed to seed.  Each run prints one JSON line
(``side``, ``seed``, ``exit``, ``result``), and the summary follows:
for every end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles, the pairs the change wins (ties count for neither), the
claim verdict (at least 10 pairs, the change wins at least 9 of every
10 and its median beats the parent's by more than the parent's
interquartile range; fewer pairs print ``too few pairs``), and the
bound check (the change's median is no worse than the
parent's by more than the metric's bound; ``unresolved`` when the
parent's own spread is wider than the bound and the change's runs do
not all read better).  Seeds where ``bits_read_per_op``, ``correct``
or ``failed`` differ between the two trees are listed last.

Exit status: 0 when every run exited 0 and no metric is worse than its
bound, 1 otherwise, 2 on bad arguments or a tree holding bytecode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
#: Per-seed fields that must repeat exactly between the two trees on a
#: workload the change does not touch.
EXACT = ("bits_read_per_op", "correct", "failed")
CLAIM_SHARE = 0.9
#: A claim needs at least this many pairs: 2/2 or 5/5 wins is too
#: likely by chance to count.
CLAIM_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"11,12"`` or a mix of both, in order."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def bytecode_dir(tree: str) -> Path | None:
    """The first ``__pycache__`` directory under ``src/`` or ``perfbench/``."""
    for top in ("src", "perfbench"):
        for path in sorted(Path(tree, top).rglob("__pycache__")):
            if path.is_dir():
                return path
    return None


def run_one(tree: str, command: list[str], workload: str, seed: int,
            seconds: int) -> dict:
    """One untraced ledger run in ``tree``: a record for :func:`summarize`."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit": proc.returncode, "result": result}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _value(record: dict, name: str):
    result = record.get("result") or {}
    if name in ("correct", "failed"):
        return result.get(name)
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def _worse_share(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    loss = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if loss <= 0 else float("inf")
    return loss / abs(parent)


def summarize(records: list[dict], spec: dict) -> dict:
    """The pair-protocol verdicts for a set of run records.

    ``records`` are ``{"side", "seed", "exit", "result"}`` dicts (the
    lines :func:`main` prints); ``spec`` is the parsed
    ``BENCHMARK.json``.  Only seeds with a result on both sides pair.
    """
    by_side: dict[str, dict[int, dict]] = {side: {} for side in SIDES}
    for record in records:
        by_side[record["side"]][record["seed"]] = record
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    metrics = []
    for entry in spec["end_to_end"]:
        name, better, bound = entry["name"], entry["better"], entry["bound"]
        pairs = [
            (_value(by_side["parent"][s], name),
             _value(by_side["change"][s], name))
            for s in seeds
        ]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        p_q1, p_med, p_q3 = _quartiles(parent)
        c_q1, c_med, c_q3 = _quartiles(change)
        wins = sum(
            1 for p, c in pairs if (c < p if better == "lower" else c > p)
        )
        gap = p_med - c_med if better == "lower" else c_med - p_med
        iqr = p_q3 - p_q1
        claim = (
            len(pairs) >= CLAIM_PAIRS
            and wins >= CLAIM_SHARE * len(pairs)
            and gap > iqr
        )
        worse = _worse_share(p_med, c_med, better)
        if worse > bound:
            check = "worse"
        elif p_med and iqr / abs(p_med) > bound and not (
            max(change) < min(parent) if better == "lower"
            else min(change) > max(parent)
        ):
            check = "unresolved"
        else:
            check = "ok"
        metrics.append({
            "name": name, "unit": entry["unit"], "better": better,
            "bound": bound, "pairs": len(pairs), "wins": wins,
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "gap": gap, "parent_iqr": iqr, "claim": claim,
            "worse_share": worse, "bound_check": check,
        })
    differs = []
    for s in seeds:
        for name in EXACT:
            p = _value(by_side["parent"][s], name)
            c = _value(by_side["change"][s], name)
            if p != c:
                differs.append({"seed": s, "field": name,
                                "parent": p, "change": c})
    failed_runs = [
        {"side": r["side"], "seed": r["seed"], "exit": r["exit"]}
        for r in records if r["exit"] != 0
    ]
    return {"seeds": seeds, "metrics": metrics, "differs": differs,
            "failed_runs": failed_runs}


def format_summary(summary: dict) -> str:
    def trio(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    def move(worse):
        if worse == 0:
            return "unchanged"
        return f"{worse:.1%} worse" if worse > 0 else f"{-worse:.1%} better"

    lines = [
        f"{len(summary['seeds'])} pairs, seeds {summary['seeds']}",
        "metric | parent median [q1, q3] | change median [q1, q3] | "
        "change wins | claim | bound",
    ]
    for m in summary["metrics"]:
        verdict = (
            "holds" if m["claim"]
            else "too few pairs" if m["pairs"] < CLAIM_PAIRS
            else "no"
        )
        lines.append(
            f"{m['name']} ({m['unit']}, {m['better']} is better) | "
            f"{trio(m['parent'])} | {trio(m['change'])} | "
            f"{m['wins']}/{m['pairs']} | "
            f"{verdict} (gap {m['gap']:.4g} vs "
            f"parent IQR {m['parent_iqr']:.4g}) | "
            f"{m['bound_check']} ({move(m['worse_share'])}, bound "
            f"{m['bound']:.0%})"
        )
    if summary["differs"]:
        lines.append("per-seed differences:")
        lines.extend(
            f"  seed {d['seed']} {d['field']}: parent {d['parent']} "
            f"change {d['change']}"
            for d in summary["differs"]
        )
    else:
        lines.append("bits_read_per_op, correct and failed agree per seed")
    for run in summary["failed_runs"]:
        lines.append(
            f"  {run['side']} seed {run['seed']} exited {run['exit']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"ledger_pairs: bad --seeds: {exc}", file=sys.stderr)
        return 2
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not (Path(tree) / "perfbench" / "run.py").is_file():
            print(f"ledger_pairs: no perfbench/run.py under {side} "
                  f"tree {tree!r}", file=sys.stderr)
            return 2
        stale = bytecode_dir(tree)
        if stale is not None:
            print(f"ledger_pairs: {side} tree {tree!r} holds bytecode at "
                  f"{str(stale)!r}; remove every __pycache__ under src/ "
                  "and perfbench/ first", file=sys.stderr)
            return 2
    spec = json.loads(BENCHMARK.read_text())
    records = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record = {"side": side, "seed": seed, **run_one(
                trees[side], spec["command"], args.workload, seed,
                spec["run_seconds"],
            )}
            print(json.dumps(record), flush=True)
            records.append(record)
    summary = summarize(records, spec)
    print(format_summary(summary))
    bad = summary["failed_runs"] or any(
        m["bound_check"] == "worse" for m in summary["metrics"]
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
