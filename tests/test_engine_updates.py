"""The column update verbs: one body for deferred and built columns.

``EngineColumn.append/change/delete`` take their capability from the
column's ``IndexSpec``, validate against the codes mirror, touch the
index only when one is built, and compact the mirror by the deletable
backend's own rule.  A deferred column (a resident coordinator's) and
a built one (a worker's, or a serial cluster's) must therefore agree
after every call, refused calls included.
"""

import random

import pytest

from repro.engine import QueryEngine, all_specs, get_spec
from repro.errors import InvalidParameterError, UpdateError

UPDATE_SPECS = [
    "appendable", "buffered-appendable", "fully-dynamic", "deletable"
]
SIGMA = 8


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
def test_spec_capabilities_match_the_backend_methods(spec):
    # The update verbs check the spec where they used to probe the
    # built index; the two must name the same abilities.
    index = spec.build([0, 1, 2, 3, 1, 0, 2, 3], 4)
    assert hasattr(index, "append") == (spec.dynamism != "static")
    assert hasattr(index, "change") == (spec.dynamism == "fully_dynamic")
    assert hasattr(index, "delete") == spec.supports_delete


def _engine_pair(spec_name, codes):
    spec = get_spec(spec_name)
    engines = []
    for defer in (True, False):
        engine = QueryEngine()
        engine.add_column(
            "c", codes, SIGMA,
            dynamism=spec.dynamism,
            require_delete=spec.supports_delete,
            backend=spec_name,
            defer_index=defer,
        )
        engines.append(engine)
    return engines


def _random_call(rng, codes):
    """One append/change/delete call, valid or not, on ``codes``."""
    n = len(codes)
    live = [i for i, c in enumerate(codes) if c is not None]
    holes = [i for i, c in enumerate(codes) if c is None]
    roll = rng.random()
    if roll < 0.15:
        ch = rng.choice([rng.randrange(SIGMA), SIGMA, -1])
        return ("append", ch)
    if roll < 0.45:
        pos = rng.choice(
            [rng.choice(live), n, -1] + ([rng.choice(holes)] if holes else [])
        )
        ch = rng.choice([rng.randrange(SIGMA), rng.randrange(SIGMA), SIGMA])
        return ("change", pos, ch)
    pos = rng.choice(
        [rng.choice(live)] * 3
        + [n, -1]
        + ([rng.choice(holes)] if holes else [])
    )
    return ("delete", pos)


def _apply(engine, call):
    try:
        getattr(engine, call[0])("c", *call[1:])
    except (InvalidParameterError, UpdateError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("spec_name", UPDATE_SPECS)
def test_deferred_and_built_columns_agree_on_every_call(spec_name):
    rng = random.Random(sum(map(ord, spec_name)))
    codes = [rng.randrange(SIGMA) for _ in range(48)]
    deferred, built = _engine_pair(spec_name, codes)
    d_col, b_col = deferred.column("c"), built.column("c")
    outcomes = set()
    for _ in range(160):
        call = _random_call(rng, d_col.codes)
        raised = _apply(deferred, call)
        assert _apply(built, call) is raised, call
        outcomes.add((call[0], raised))
        assert d_col.codes == b_col.codes
        assert d_col.n == b_col.n == len(b_col.codes)
        assert d_col.version == b_col.version
    assert d_col.deferred and not b_col.deferred
    # Every verb was refused at least once, and the legal ones ran.
    assert {verb for verb, raised in outcomes if raised} == {
        "append", "change", "delete"
    }
    if spec_name == "deletable":
        assert ("delete", None) in outcomes
        assert b_col.index.compactions >= 1
        assert None in b_col.codes  # a local read meets pending holes
    # The built index agrees with the mirror it kept in step with, and
    # a local read forces the deferred column to the same RIDs.
    for lo, hi in [(0, SIGMA - 1), (2, 5), (7, 7)]:
        want = [
            i for i, c in enumerate(b_col.codes)
            if c is not None and lo <= c <= hi
        ]
        assert built.query("c", lo, hi).positions() == want
        assert deferred.query("c", lo, hi).positions() == want
    assert not d_col.deferred
    assert d_col.codes == b_col.codes and d_col.n == b_col.n


def test_rejected_deletes_do_not_advance_compaction():
    codes = [0, 1, 2, 3, 1, 0, 2, 3]
    for defer in (True, False):
        engine = QueryEngine()
        col = engine.add_column(
            "d", codes, 4, dynamism="fully_dynamic", require_delete=True,
            backend="deletable", defer_index=defer,
        )
        for pos in (100, -1):
            with pytest.raises(UpdateError):
                engine.delete("d", pos)
        assert col.codes == codes and col.version == 0
        engine.delete("d", 0)
        engine.delete("d", 1)
        # 2 of 8 rows deleted: under the 0.5 rule, nothing compacts.
        assert col.codes == [None, None, 2, 3, 1, 0, 2, 3]
        assert col.n == 8 and col.version == 2
        assert col.deferred == defer
        if not defer:
            assert col.index.compactions == 0
            assert engine.query("d", 0, 3).positions() == [2, 3, 4, 5, 6, 7]
