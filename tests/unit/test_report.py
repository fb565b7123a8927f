"""Edge-case tests for harness.report (geomean, pearson, Table) and
the report's bench-trajectory charts."""

import math

import pytest

from repro.campaign.html import _bench_section
from repro.campaign.rundb import RunDB
from repro.harness.report import Table, geomean, pearson


class TestGeomean:
    def test_basic(self):
        assert math.isclose(geomean([2, 8]), 4.0)

    def test_drops_non_positive_with_warning(self):
        with pytest.warns(RuntimeWarning, match="non-positive"):
            v = geomean([0.0, 2, 8])
        assert math.isclose(v, 4.0)

    def test_negative_also_warns(self):
        with pytest.warns(RuntimeWarning):
            assert math.isclose(geomean([-1, 4]), 4.0)

    def test_all_non_positive_is_zero(self):
        with pytest.warns(RuntimeWarning):
            assert geomean([0, -3]) == 0.0

    def test_empty_is_zero_without_warning(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geomean([]) == 0.0

    def test_positive_input_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isclose(geomean([1, 1, 1]), 1.0)


class TestPearson:
    def test_perfect_negative(self):
        assert math.isclose(pearson([1, 2, 3], [-2, -4, -6]), -1.0)

    def test_short_series_raises(self):
        with pytest.raises(ValueError):
            pearson([1], [2])
        with pytest.raises(ValueError):
            pearson([], [])

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])

    def test_zero_variance_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0


class TestTable:
    def test_empty_table_renders_header_only(self):
        t = Table("Empty", ["a", "b"])
        out = t.render()
        assert "Empty" in out
        assert "a" in out and "b" in out
        # title, underline, header, separator — and nothing else
        assert len(out.splitlines()) == 4

    def test_wide_cells_stretch_columns(self):
        t = Table("W", ["col"])
        t.add_row("a-very-wide-cell-value")
        lines = t.render().splitlines()
        header, sep, row = lines[2], lines[3], lines[4]
        assert len(header) == len(sep) == len(row)
        assert "a-very-wide-cell-value" in row

    def test_float_formatting(self):
        t = Table("F", ["x"])
        t.add_row(0.0)
        t.add_row(1234.5678)
        t.add_row(0.25)
        rows = t.render().splitlines()[4:]
        assert rows[0].strip() == "0"
        assert "1.23e+03" in rows[1] or "1230" in rows[1]
        assert rows[2].strip() == "0.25"

    def test_row_width_mismatch_raises(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)


class TestSweepChart:
    def test_parallel_speedup_skipped_when_cpus_below_jobs(self, tmp_path):
        entries = [
            # stored before the not-applicable marker existed
            {"cpu_count": 1, "jobs": 4, "parallel_speedup": 0.8,
             "warm_speedup": 20.0},
            {"cpu_count": 2, "jobs": 4, "warm_speedup": 22.0,
             "parallel_speedup_na": "cpu_count < jobs"},
            {"cpu_count": 8, "jobs": 4, "parallel_speedup": 3.1,
             "warm_speedup": 25.0},
        ]
        with RunDB(tmp_path / "runs.db") as db:
            for i, e in enumerate(entries):
                db.record_bench("sweep", i, e)
            html = _bench_section(db)
        assert "parallel vs serial · run 3" in html
        assert "parallel vs serial · run 1" not in html
        assert "parallel vs serial · run 2" not in html
        for i in (1, 2, 3):
            assert f"warm cache vs serial · run {i}" in html
