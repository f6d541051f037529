"""benchmarks/helpers.py: pivot, series_of, save_table, RESULTS_DIR."""

import os
import sys

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import helpers  # noqa: E402

ROWS = [
    {"policy": "table", "exponent": 1.0, "throughput": 100.0},
    {"policy": "table", "exponent": 1.5, "throughput": 80.0},
    {"policy": "hash", "exponent": 1.0, "throughput": 90.0},
    {"policy": "hash", "exponent": 1.5, "throughput": 85.0},
]


def test_results_dir_is_absolute_and_normalized():
    assert os.path.isabs(helpers.RESULTS_DIR)
    assert ".." not in helpers.RESULTS_DIR.split(os.sep)
    assert os.path.basename(helpers.RESULTS_DIR) == "results"


def test_pivot_builds_row_col_table():
    table = helpers.pivot(ROWS, "policy", "exponent", "throughput")
    assert table == {
        "table": {1.0: 100.0, 1.5: 80.0},
        "hash": {1.0: 90.0, 1.5: 85.0},
    }


def test_pivot_last_write_wins_on_duplicates():
    rows = ROWS + [{"policy": "table", "exponent": 1.0, "throughput": 42.0}]
    table = helpers.pivot(rows, "policy", "exponent", "throughput")
    assert table["table"][1.0] == 42.0


def test_series_of_filters_and_sorts():
    shuffled = list(reversed(ROWS))
    series = helpers.series_of(
        shuffled, {"policy": "table"}, "exponent", "throughput"
    )
    assert series == [(1.0, 100.0), (1.5, 80.0)]
    assert helpers.series_of(ROWS, {"policy": "nope"}, "exponent", "throughput") == []


def test_save_table(tmp_path, monkeypatch):
    monkeypatch.setattr(helpers, "RESULTS_DIR", str(tmp_path / "results"))
    helpers.save_table("smoke", "| a | b |")
    saved = tmp_path / "results" / "smoke.txt"
    assert saved.read_text() == "| a | b |\n"
