"""Result-regression comparison utility."""

from __future__ import annotations

import math

import pytest

from repro.analysis.export import table_to_dict
from repro.analysis import compare_tables
from repro.analysis.reporting import Table


def make_export(lbm=4.0, mcf=2.0) -> dict:
    table = Table("T", ["app", "speedup", "label"])
    table.add_row("lbm", lbm, "x")
    table.add_row("mcf", mcf, "y")
    return table_to_dict(table)


class TestCompare:
    def test_identical_is_clean(self):
        report = compare_tables(make_export(), make_export())
        assert report.clean
        assert report.cells_compared == 4
        assert "clean" in report.summary()

    def test_within_tolerance_is_clean(self):
        report = compare_tables(make_export(lbm=4.0), make_export(lbm=4.1))
        assert report.clean

    def test_drift_detected(self):
        report = compare_tables(make_export(lbm=4.0), make_export(lbm=6.0))
        assert not report.clean
        assert len(report.drifts) == 1
        drift = report.drifts[0]
        assert drift.row_key == "lbm"
        assert drift.column == "speedup"
        assert drift.relative_change == pytest.approx(0.5)
        assert "lbm/speedup" in report.summary()

    def test_non_numeric_mismatch_detected(self):
        current = make_export()
        current["rows"][0][2] = "CHANGED"
        report = compare_tables(make_export(), current)
        assert len(report.drifts) == 1
        assert str(report.drifts[0]) == "lbm/label: 'x' -> 'CHANGED'"

    def test_missing_and_extra_rows(self):
        current = make_export()
        current["rows"] = [current["rows"][0], ["gcc", 1.5, "z"]]
        report = compare_tables(make_export(), current)
        assert report.missing_rows == ["mcf"]
        assert report.extra_rows == ["gcc"]
        assert not report.clean

    def test_header_mismatch_raises(self):
        other = make_export()
        other["headers"] = ["app", "other", "label"]
        with pytest.raises(ValueError, match="header mismatch"):
            compare_tables(make_export(), other)

    def test_zero_reference_reports_as_appeared(self):
        report = compare_tables(make_export(lbm=0.0), make_export(lbm=0.5))
        assert not report.clean
        assert report.drifts == []
        assert len(report.appeared) == 1
        drift = report.appeared[0]
        assert drift.category == "appeared"
        # Never ±inf: a zero reference has nothing to be relative to.
        assert math.isnan(drift.relative_change)
        assert "appeared" in str(drift)
        assert "1 appeared" in report.summary()

    def test_zero_current_reports_as_vanished(self):
        report = compare_tables(make_export(lbm=0.5), make_export(lbm=0.0))
        assert not report.clean
        assert report.drifts == []
        assert len(report.vanished) == 1
        drift = report.vanished[0]
        assert drift.category == "vanished"
        assert drift.relative_change == pytest.approx(-1.0)
        assert "vanished" in str(drift)

    def test_all_drifts_spans_categories(self):
        report = compare_tables(
            make_export(lbm=0.0, mcf=2.0), make_export(lbm=0.5, mcf=9.0)
        )
        assert len(report.all_drifts) == 2
        assert {d.category for d in report.all_drifts} == {"appeared", "changed"}
