"""E21 performance ledger: one workload through the whole serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc-scan --seed 1 --seconds 10 --trace 0

Workloads: ``dashboard-zipf``, ``adhoc-scan``, ``ingest-durable`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  The run builds the
stack from ``src/``, issues ``rate x seconds`` operations made from the
seed, checks sampled answers and every restore probe against a
brute-force oracle, and prints two JSON lines: a detail record (host
facts, raw timings, per-window reference samples) and, last, the
result.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reruns with per-layer accounting and reports the per-layer metrics.

Exit status: 0 when every checked answer matched (and, traced, the
layer times accounted for the busy time), 1 otherwise, 2 when the
sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process ``ProcessExecutor`` started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    from perfbench import workloads
    from perfbench.ledger import Run

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
        asyncio.run(run.run())
        checked = run.verify()
        values, detail = run.metrics()
        if args.trace:
            values = run.probe.compute(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
        _stop_resource_tracker()
    detail["checked_answers"] = checked
    detail["mismatches"] = run.mismatches[:10]
    correct = not run.mismatches
    if args.trace:
        from perfbench.layers import ACCOUNTING_TOLERANCE

        detail["end_to_end"] = {k: v for k, (v, _u) in run.metrics()[0].items()}
        share = values["trace.accounted_share"][0]
        detail["accounting_ok"] = abs(share - 1) <= ACCOUNTING_TOLERANCE
        correct = correct and detail["accounting_ok"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
