"""Unit tests for the benchmark harness and workload helpers."""

import os

import pytest

from repro.bench import (
    Report,
    cold_query,
    fmt,
    output_bits_bound,
    prefix_range_for_selectivity,
    random_ranges,
    ratio,
    render_table,
    standard_string,
)
from repro.core import PaghRaoIndex
from repro.errors import InvalidParameterError

pytest_plugins = ["pytester"]

BENCH_CONFTEST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "conftest.py",
)


class TestFormatting:
    def test_fmt_variants(self):
        assert fmt(True) == "yes"
        assert fmt(False) == "no"
        assert fmt(0.0) == "0"
        assert fmt(3.14159) == "3.142"
        assert fmt(42.7) == "42.7"
        assert fmt(123456.0) == "123,456"
        assert fmt(123456) == "123,456"
        assert fmt(7) == "7"
        assert fmt("x") == "x"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        # All data lines have equal width.
        assert len(lines[2]) == len(lines[3]) == len(lines[4])
        assert "333" in lines[4]

    def test_render_table_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "== T ==" in text


class TestReport:
    def test_save_roundtrip(self, tmp_path):
        rep = Report("exp", str(tmp_path))
        rep.line("hello")
        rep.table("tbl", ["h"], [[1]], note="n")
        path = rep.save()
        assert os.path.exists(path)
        content = open(path).read()
        assert "hello" in content
        assert "== tbl ==" in content
        assert "note: n" in content


class TestReportJsonRoundTrip:
    def test_write_reload_identical_tables(self, tmp_path):
        rep = Report("exp", str(tmp_path))
        rep.line("preamble")
        rep.table(
            "space",
            ["structure", "bits", "ratio"],
            [["pagh-rao", 12345, 1.07], ["btree", 99999, 8.5]],
            note="smaller is better",
        )
        rep.table("empty", ["h"], [])
        rep.save()

        loaded = Report.load(str(tmp_path), "exp")
        assert loaded.name == rep.name
        assert loaded.lines == rep.lines
        assert loaded.tables == rep.tables

    def test_reload_of_reload_is_stable(self, tmp_path):
        # Save -> load -> save again: neither the JSON nor the rendered
        # text may drift, so recorded benchmark numbers stay citable.
        rep = Report("exp", str(tmp_path))
        rep.line("preamble")
        rep.table("t", ["a"], [[1.23456], [7]], note="n")
        txt_path = rep.save()
        first_json = open(Report.json_path(str(tmp_path), "exp")).read()
        first_txt = open(txt_path).read()

        loaded = Report.load(str(tmp_path), "exp")
        loaded.save()
        assert open(Report.json_path(str(tmp_path), "exp")).read() == first_json
        assert open(txt_path).read() == first_txt

    def test_cells_formatted_like_rendered_table(self, tmp_path):
        rep = Report("exp", str(tmp_path))
        rep.table("t", ["v"], [[123456.0], [True]])
        assert rep.tables[0]["rows"] == [["123,456"], ["yes"]]


class TestMeasurement:
    def test_cold_query_counts(self):
        x = standard_string("uniform", 500, 16, seed=1)
        idx = PaghRaoIndex(x, 16)
        io = cold_query(idx, 3, 9)
        assert io["reads"] >= 1
        assert io["z"] == sum(1 for c in x if 3 <= c <= 9)
        # Cold again: same cost (deterministic).
        assert cold_query(idx, 3, 9)["reads"] == io["reads"]

    def test_output_bits_bound_complement(self):
        assert output_bits_bound(100, 99) == output_bits_bound(100, 1)
        assert output_bits_bound(100, 0) == 1.0
        assert output_bits_bound(1024, 32) > 32 * 5

    def test_ratio_guards_zero(self):
        assert ratio(5, 0) > 0
        assert ratio(10, 5) == 2.0


class TestWorkloads:
    def test_standard_string_dispatch(self):
        x = standard_string("zipf", 200, 8, seed=2, theta=1.0)
        assert len(x) == 200
        with pytest.raises(InvalidParameterError):
            standard_string("nope", 10, 4)

    def test_prefix_range_hits_target(self):
        x = standard_string("sequential", 1024, 64)
        lo, hi = prefix_range_for_selectivity(x, 64, 1 / 4)
        z = sum(1 for c in x if lo <= c <= hi)
        assert lo == 0
        assert abs(z - 256) <= 1024 // 64  # within one character's mass

    def test_prefix_range_full(self):
        x = standard_string("sequential", 128, 8)
        assert prefix_range_for_selectivity(x, 8, 1.0) == (0, 7)

    def test_random_ranges_reproducible(self):
        assert random_ranges(16, 5, seed=3) == random_ranges(16, 5, seed=3)
        for lo, hi in random_ranges(16, 20, seed=4):
            assert 0 <= lo <= hi < 16


class TestPartialRunsKeepResults:
    """The benchmarks' ``report`` fixture saves only whole-module runs."""

    MODULE = """
import os

def test_first(report):
    assert not os.environ.get("BENCH_FAIL")
    report.table("first", ["v"], [[os.environ.get("BENCH_TAG", "a")]])

def test_second(report):
    report.table("second", ["v"], [[os.environ.get("BENCH_TAG", "a")]])
"""

    def _files(self, pytester):
        results = pytester.path / "results"
        return [
            (results / f"bench_demo.{ext}").read_bytes()
            for ext in ("json", "txt")
        ]

    def test_partial_runs_leave_results_byte_identical(
        self, pytester, monkeypatch
    ):
        with open(BENCH_CONFTEST) as f:
            pytester.makeconftest(f.read())
        pytester.makepyfile(bench_demo=self.MODULE)
        pytester.runpytest("bench_demo.py").assert_outcomes(passed=2)
        saved = self._files(pytester)
        assert b"second" in saved[1]
        monkeypatch.setenv("BENCH_TAG", "b")
        for args in (
            ["bench_demo.py", "-k", "first"],
            ["bench_demo.py", "--deselect", "bench_demo.py::test_second"],
            ["bench_demo.py::test_first"],
        ):
            pytester.runpytest(*args).assert_outcomes(passed=1)
            assert self._files(pytester) == saved, args
        monkeypatch.setenv("BENCH_FAIL", "1")
        pytester.runpytest("bench_demo.py", "-x").assert_outcomes(failed=1)
        assert self._files(pytester) == saved
        monkeypatch.delenv("BENCH_FAIL")
        pytester.runpytest("bench_demo.py").assert_outcomes(passed=2)
        rewritten = self._files(pytester)
        assert rewritten != saved
        assert b"second" in rewritten[1]
