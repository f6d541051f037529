"""Smoke tests for the figure drivers and the report formatter."""

import pytest

from repro.analysis import experiments
from repro.analysis.report import format_table, ktuples


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            {"a": 1, "b": "x"},
            {"a": 22, "b": "yy"},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len({len(line) for line in lines[2:]}) <= 2

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")
        assert format_table([]) == "(no rows)"

    def test_format_table_column_subset_and_missing(self):
        rows = [{"a": 1.23456, "b": 2}]
        text = format_table(rows, columns=["a", "missing"])
        assert "1.235" in text
        assert "-" in text

    def test_format_table_large_floats_thousands(self):
        text = format_table([{"x": 123456.7}])
        assert "123,457" in text

    def test_ktuples(self):
        assert ktuples(123456) == 123.5


class TestDriversSmoke:
    """Tiny-grid runs of every figure driver (the full grids are the
    campaigns' for Figures 10-13, benchmarks/ for the rest)."""

    def test_fig7_single_cell(self):
        rows = experiments.fig7(
            parallelisms=(2,), localities=(1.0,), paddings=(0,),
            policies=("locality-aware",),
        )
        assert len(rows) == 1
        assert rows[0]["throughput"] > 0
        assert rows[0]["measured_locality"] == 1.0

    def test_fig8_shape(self):
        rows = experiments.fig8(
            localities=(0.6,), parallelisms=(2,),
            policies=("hash-based",),
        )
        assert rows[0]["padding"] == 12000

    def test_fig9_shape(self):
        rows = experiments.fig9(
            paddings=(0,), parallelisms=(2,), policies=("worst-case",),
        )
        assert rows[0]["locality"] == 0.8

    def test_fig10_rows(self):
        rows = experiments.fig10(weeks=2, quick=True)
        assert rows
        assert {"tag", "location", "day", "frequency"} <= set(rows[0])

    def test_fig11_rows(self):
        rows = experiments.fig11(weeks=2, quick=True)
        # an explicit ``weeks`` wins over the quick default of 8
        assert [(r["mode"], r["week"]) for r in rows] == [
            (mode, week)
            for mode in ("online", "offline", "hash-based")
            for week in (0, 1)
        ]
        assert all(0.0 <= r["locality"] <= 1.0 for r in rows)
        only = experiments.fig11(weeks=2, modes=("offline",), quick=True)
        assert only == [r for r in rows if r["mode"] == "offline"]

    def test_fig12_rows(self):
        rows = experiments.fig12(
            edge_budgets=(10,), parallelisms=(2,), quick=True
        )
        assert rows[0]["edges"] == 10
        # Bounded memory is enough: on the full-size trace about 1 % of
        # the edges already doubles the 1/n locality of hashing. (No
        # campaign cell covers this; they run the quick-size trace.)
        (row,) = experiments.fig12(
            edge_budgets=(1000,), parallelisms=(6,), quick=False
        )
        assert row["locality"] > 2 / 6

    def test_scale_rows(self):
        (row,) = experiments.scale(key_counts=(10_000,))
        assert row["table_keys"] == 5000
        assert row["compact_bytes_per_key"] < row["plain_bytes_per_key"]
        assert row["delta_bytes_per_round"] < row["snapshot_bytes_per_round"]
        assert row["false_route_rate"] == 0.0

    def test_fig13_quick(self):
        rows = experiments.fig13(quick=True)
        assert any(r["reconfigure"] for r in rows)
        assert any(not r["reconfigure"] for r in rows)
        for row in rows:
            assert row["samples"]

    def test_fig14_quick_grid_shape(self):
        rows = experiments.fig14(parallelisms=(2,), quick=True)
        assert len(rows) == 2

    def test_cli_writes_results(self, tmp_path, capsys):
        code = experiments.main(
            ["fig10", "--quick", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig10.txt").exists()
        captured = capsys.readouterr()
        assert "fig10" in captured.out
