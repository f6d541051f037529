"""Smoke tests for the experiment point functions and the report formatter."""

from repro.analysis import experiments
from repro.analysis.report import format_table, ktuples
from repro.analysis.trace_eval import MODES, weekly_series
from repro.campaign.runners import ABLATION_CLAIMS, run_cell
from repro.workloads import TwitterConfig, TwitterWorkload


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


SMALL_TRACE = TwitterWorkload(
    TwitterConfig(
        tweets_per_week=2000,
        num_locations=100,
        base_hashtags=500,
        new_hashtags_per_week=50,
    )
)


class TestDriversSmoke:
    """One small cell through every point function, with a small trace
    handed in where the experiment runs on one (the paper-size grids,
    and the claims, are the campaigns')."""

    def test_fig7_single_cell(self):
        row = experiments.synthetic_run(2, 1.0, 0, "locality-aware")
        assert row["throughput"] > 0
        assert row["measured_locality"] == 1.0

    def test_fig8_shape(self):
        row = experiments.synthetic_run(2, 0.6, 12000, "hash-based")
        assert row["throughput"] > 0
        assert row["measured_locality"] < 0.6

    def test_fig9_shape(self):
        row = experiments.synthetic_run(2, 0.8, 0, "worst-case")
        assert row["throughput"] > 0
        assert row["measured_locality"] < 0.8

    def test_skew_run(self):
        row = experiments.skew_run(2, 1.0, 0.3, "hybrid")
        assert row["throughput"] > 0
        assert 0.0 <= row["locality"] <= 1.0
        assert row["load_balance"] >= 1.0

    def test_fig10_rows(self):
        rows = experiments.flash_tag_series(SMALL_TRACE, weeks=2)
        assert rows
        assert {"tag", "location", "day", "frequency"} <= set(rows[0])

    def test_fig11_rows(self):
        for mode in MODES:
            results = weekly_series(SMALL_TRACE.week_pairs, 2, 6, mode)
            assert len(results) == 2
            assert all(0.0 <= r.locality <= 1.0 for r in results)

    def test_fig12_rows(self):
        row = experiments.edge_budget_point(SMALL_TRACE, 10, 2)
        assert row["edges"] == 10
        assert 0.0 <= row["locality"] <= 1.0
        # a budget beyond the trace reports the edges that exist
        distinct = len(set(SMALL_TRACE.week_pairs(0)))
        capped = experiments.edge_budget_point(SMALL_TRACE, 10**9, 2)
        unlimited = experiments.edge_budget_point(SMALL_TRACE, None, 2)
        assert capped["edges"] == unlimited["edges"] == distinct
        assert capped["locality"] == unlimited["locality"]

    def test_scale_rows(self):
        row = experiments.scale_point(10_000)
        assert row["table_keys"] == 5000
        assert row["compact_bytes_per_key"] < row["plain_bytes_per_key"]
        assert row["delta_bytes_per_round"] < row["snapshot_bytes_per_round"]
        assert row["false_route_rate"] == 0.0

    def test_fig13_quick(self):
        rows = [
            experiments.flickr_run(
                2, 4000, 1.0, reconfigure, duration_s=0.6, period_s=0.2
            )
            for reconfigure in (True, False)
        ]
        assert [row["rounds"] > 0 for row in rows] == [True, False]
        for row in rows:
            assert row["samples"] and row["period_s"] == 0.2

    def test_fig14_quick_grid_shape(self):
        # Figure 14 is the fig13 cell over parallelism at its own
        # duration: the runner hands ``duration_s`` through
        outcome = run_cell(
            "fig13",
            {
                "parallelism": 2,
                "padding": 4000,
                "bandwidth_gbps": 1.0,
                "duration_s": 0.8,
            },
            seed=0,
        )
        assert outcome.ok and outcome.metrics["rounds_completed"] == 1.0
        assert outcome.metrics["after_with_reconf_per_s"] > 0

    def test_ablations(self):
        assert set(experiments.ABLATIONS) == set(ABLATION_CLAIMS)
        studies = {
            "collector": experiments.ablation_collector(SMALL_TRACE),
            "period": experiments.ablation_period(SMALL_TRACE, weeks=3),
            "estimator": experiments.ablation_estimator(SMALL_TRACE, weeks=2),
            "pkg": experiments.ablation_pkg(),
            "hierarchical": experiments.ablation_hierarchical(SMALL_TRACE),
        }
        assert studies["estimator"]["rounds"] == 2.0
        assert studies["hierarchical"]["flat_weighted_cost"] > 0
        # every metric a claim reads is one its study reports
        for study, metrics in studies.items():
            for _, _, holds in ABLATION_CLAIMS[study]:
                assert holds(metrics) in (True, False)
