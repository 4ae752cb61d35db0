"""Smoke tests: every example script must run to completion.

The examples are part of the public deliverable; this guards them
against API drift.  Each runs as a subprocess exactly as a user would
invoke it.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

SCRIPTS = [
    "quickstart.py",
    "olap_people.py",
    "scientific_sensors.py",
    "dynamic_log.py",
    "approximate_search.py",
    "engine_autopick.py",
    "cluster_scatter_gather.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    path = os.path.join(EXAMPLES_DIR, script)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"
