"""Fixtures shared by the experiment benchmarks."""

import os

import pytest

from repro.bench.harness import Report

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Node ids of the benchmarks whose setup ran, and module node ids
#: that lost a benchmark to ``-k``, ``-m`` or ``--deselect``.
_started: set = set()
_deselected: set = set()


def pytest_deselected(items):
    _deselected.update(item.nodeid.split("::")[0] for item in items)


def pytest_runtest_logreport(report):
    if report.when == "setup":
        _started.add(report.nodeid)


def _whole_module_ran(request) -> bool:
    """Did every test function the module defines run this session?

    A run narrowed by ``-k``, ``-m``, ``--deselect`` or a node id (or
    cut short by ``-x``) holds only some of the module's tables, and
    saving it would overwrite the full results with a subset.
    """
    module = request.node.nodeid
    if module in _deselected:
        return False
    defined = {
        name
        for name, obj in vars(request.module).items()
        if name.startswith("test") and callable(obj)
    }
    ran = {
        item.originalname
        for item in request.session.items
        if item.nodeid.startswith(module + "::") and item.nodeid in _started
    }
    return defined <= ran


@pytest.fixture(scope="module")
def report(request):
    """A per-module report persisted under benchmarks/results/.

    Saved only when the whole module ran, so a partial run leaves the
    committed results as they were.
    """
    name = os.path.splitext(os.path.basename(request.module.__file__))[0]
    rep = Report(name, RESULTS_DIR)
    yield rep
    if _whole_module_ran(request):
        rep.save()
