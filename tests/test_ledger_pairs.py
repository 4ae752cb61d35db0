"""The pair-protocol summary of ``tools/ledger_pairs.py``, on canned lines.

No ledger runs here: the records are the JSON lines the tool prints
per run, written out by hand, so the verdicts are known exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ledger_pairs", ROOT / "tools" / "ledger_pairs.py"
)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

SPEC = {
    "end_to_end": [
        {"name": "read_p95_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher",
         "bound": 0.2},
        {"name": "bits_read_per_op", "unit": "bits/op", "better": "lower",
         "bound": 0.2},
    ],
}


def line(side, seed, p95, ops, bits=1000.0, correct=True, failed=0,
         exit=0):
    return json.dumps({
        "side": side, "seed": seed, "exit": exit,
        "result": {
            "correct": correct, "attempted": 100, "failed": failed,
            "metrics": {
                "read_p95_ms": {"value": p95, "unit": "ms"},
                "ops_per_s": {"value": ops, "unit": "ops/s"},
                "bits_read_per_op": {"value": bits, "unit": "bits/op"},
            },
        },
    })


def summarize(lines):
    summary = ledger_pairs.summarize([json.loads(x) for x in lines], SPEC)
    return summary, {m["name"]: m for m in summary["metrics"]}


def test_a_clear_gain_is_claimed_and_within_bounds():
    lines = []
    for seed in range(1, 11):
        lines.append(line("parent", seed, 55.0 + seed % 3, 150.0 + seed))
        lines.append(line("change", seed, 11.0 + seed % 2, 150.0 + seed))
    summary, m = summarize(lines)
    p95 = m["read_p95_ms"]
    assert p95["pairs"] == 10 and p95["wins"] == 10
    assert p95["parent"][1] == 56.0 and p95["change"][1] == 11.5
    assert p95["claim"] and p95["bound_check"] == "ok"
    # Equal values are ties: no wins, no claim, still in bounds.
    assert m["ops_per_s"]["wins"] == 0
    assert not m["ops_per_s"]["claim"]
    assert m["ops_per_s"]["bound_check"] == "ok"
    assert summary["differs"] == [] and summary["failed_runs"] == []
    text = ledger_pairs.format_summary(summary)
    assert "read_p95_ms" in text and "10/10" in text


def test_eight_wins_of_ten_is_no_claim():
    lines = []
    for seed in range(1, 11):
        lines.append(line("parent", seed, 50.0, 150.0))
        lines.append(line("change", seed, 40.0 if seed <= 8 else 51.0, 150.0))
    _, m = summarize(lines)
    assert m["read_p95_ms"]["wins"] == 8
    assert not m["read_p95_ms"]["claim"]


@pytest.mark.parametrize("n", [2, 5, 9])
def test_a_clean_sweep_of_fewer_than_ten_pairs_is_no_claim(n):
    lines = []
    for seed in range(1, n + 1):
        lines.append(line("parent", seed, 55.0 + seed % 3, 150.0))
        lines.append(line("change", seed, 11.0, 150.0))
    summary, m = summarize(lines)
    p95 = m["read_p95_ms"]
    assert p95["wins"] == n and p95["gap"] > p95["parent_iqr"]
    assert not p95["claim"]
    assert p95["bound_check"] == "ok"
    assert "read_p95_ms" in ledger_pairs.format_summary(summary)
    assert "too few pairs" in ledger_pairs.format_summary(summary)


def test_a_gap_inside_the_parents_spread_is_no_claim():
    lines = []
    for seed in range(1, 11):
        lines.append(line("parent", seed, 40.0 + 2 * seed, 150.0))
        lines.append(line("change", seed, 39.0 + 2 * seed, 150.0))
    _, m = summarize(lines)
    assert m["read_p95_ms"]["wins"] == 10
    assert m["read_p95_ms"]["gap"] < m["read_p95_ms"]["parent_iqr"]
    assert not m["read_p95_ms"]["claim"]


def test_bound_check_flags_a_regression_and_a_wide_spread():
    lines = []
    for seed in range(1, 6):
        lines.append(line("parent", seed, 10.0, 200.0 + 100 * seed))
        lines.append(line("change", seed, 13.0, 200.0 + 100 * seed - 1))
    _, m = summarize(lines)
    assert m["read_p95_ms"]["bound_check"] == "worse"
    assert m["read_p95_ms"]["worse_share"] == pytest.approx(0.3)
    # ops_per_s moved by 1 op/s, but the parent's own quartiles span
    # 200 of a 500 median: wider than the 20% bound, so unresolved.
    assert m["ops_per_s"]["bound_check"] == "unresolved"


def test_per_seed_count_and_correctness_differences_are_listed():
    lines = [
        line("parent", 1, 10.0, 100.0, bits=900.0),
        line("change", 1, 10.0, 100.0, bits=901.0),
        line("parent", 2, 10.0, 100.0),
        line("change", 2, 10.0, 100.0, correct=False, failed=2, exit=1),
        line("parent", 3, 10.0, 100.0),
    ]
    summary, _ = summarize(lines)
    assert summary["seeds"] == [1, 2]  # seed 3 has no change run
    assert summary["differs"] == [
        {"seed": 1, "field": "bits_read_per_op", "parent": 900.0,
         "change": 901.0},
        {"seed": 2, "field": "correct", "parent": True, "change": False},
        {"seed": 2, "field": "failed", "parent": 0, "change": 2},
    ]
    assert summary["failed_runs"] == [
        {"side": "change", "seed": 2, "exit": 1}
    ]


def test_parse_seeds():
    assert ledger_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert ledger_pairs.parse_seeds("11,12") == [11, 12]
    assert ledger_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
