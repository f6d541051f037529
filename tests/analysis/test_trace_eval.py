"""Tests for the trace-driven policy evaluator."""

import pytest

from repro.analysis import TwoHopEvaluator, weekly_series
from repro.core import RoutingTable
from repro.errors import WorkloadError


def test_evaluator_validation():
    with pytest.raises(WorkloadError):
        TwoHopEvaluator(0)


def test_hash_evaluation_basics():
    evaluator = TwoHopEvaluator(4)
    pairs = [(f"k{i}", f"v{i}") for i in range(1000)]
    result = evaluator.evaluate(pairs)
    assert result.pairs == 1000
    assert result.locality == pytest.approx(0.25, abs=0.05)
    assert sum(result.loads_first) == 1000
    assert sum(result.loads_second) == 1000
    assert result.load_balance >= 1.0
    assert result.unseen_fraction == 0.0  # no tables given


def test_empty_trace():
    result = TwoHopEvaluator(2).evaluate([])
    assert result.locality == 1.0
    assert result.load_balance == 1.0
    assert result.pairs == 0


def test_tables_drive_routing():
    evaluator = TwoHopEvaluator(2)
    tables = {
        "S->A": RoutingTable({"a": 0, "b": 1}),
        "A->B": RoutingTable({"x": 0, "y": 1}),
    }
    result = evaluator.evaluate(
        [("a", "x"), ("b", "y"), ("a", "y")], tables
    )
    assert result.locality == pytest.approx(2 / 3)
    assert result.loads_first == [2, 1]
    assert result.loads_second == [1, 2]


def test_unseen_fraction_counts_table_misses():
    evaluator = TwoHopEvaluator(2)
    tables = {
        "S->A": RoutingTable({"a": 0}),
        "A->B": RoutingTable({"x": 0}),
    }
    result = evaluator.evaluate([("a", "x"), ("new", "x")], tables)
    assert result.unseen_fraction == pytest.approx(0.5)


def test_plan_tables_reaches_full_locality_on_separable_data():
    evaluator = TwoHopEvaluator(3)
    pairs = [(f"k{i % 6}", f"v{i % 6}") for i in range(600)]
    tables, predicted = evaluator.plan_tables(pairs)
    assert predicted == 1.0
    result = evaluator.evaluate(pairs, tables)
    assert result.locality == 1.0
    assert result.load_balance < 1.2


def test_plan_tables_with_spacesaving_budget():
    evaluator = TwoHopEvaluator(2)
    pairs = [("hot", "hot2")] * 500 + [
        (f"k{i}", f"v{i}") for i in range(300)
    ]
    tables, _ = evaluator.plan_tables(pairs, sketch_capacity=16)
    # The dominant pair must be covered and co-located.
    assert tables["S->A"].lookup("hot") == tables["A->B"].lookup("hot2")


def test_plan_tables_max_edges_truncates():
    evaluator = TwoHopEvaluator(2)
    pairs = []
    for i in range(40):
        pairs.extend([(f"k{i}", f"v{i}")] * (40 - i))
    tables, _ = evaluator.plan_tables(pairs, max_edges=10)
    assert len(tables["S->A"]) == 10


def test_tables_score_higher_on_the_week_they_were_planned_from():
    from repro.workloads import TwitterConfig, TwitterWorkload

    workload = TwitterWorkload(TwitterConfig(tweets_per_week=5000))
    evaluator = TwoHopEvaluator(6)
    week0 = list(workload.week_pairs(0))
    tables, _ = evaluator.plan_tables(week0)
    same_week = evaluator.evaluate(week0, tables).locality
    next_week = evaluator.evaluate(list(workload.week_pairs(1)), tables)
    assert same_week > next_week.locality  # new hashtags arrive each week
    assert next_week.unseen_fraction > 0.0


def test_weekly_series_modes():
    def week_pairs(week):
        # Stable, perfectly separable correlation.
        return [(f"k{i % 4}", f"v{i % 4}") for i in range(200)]

    hash_series = weekly_series(week_pairs, 3, 2, "hash-based")
    online_series = weekly_series(week_pairs, 3, 2, "online")
    offline_series = weekly_series(week_pairs, 3, 2, "offline")
    # Week 0 is always hash-routed.
    assert hash_series[0].locality == online_series[0].locality
    # From week 1 the stable workload is fully local for both policies.
    assert online_series[1].locality == 1.0
    assert offline_series[2].locality == 1.0
    assert hash_series[2].locality < 1.0


def test_weekly_series_rejects_unknown_mode():
    with pytest.raises(WorkloadError):
        weekly_series(lambda w: [], 2, 2, "magic")


def test_online_beats_offline_on_shifting_data():
    def week_pairs(week):
        # Correlations shift after week 0 and then hold: online follows,
        # the week-0 tables never see the new pairing. (A rotation by
        # one *every* week leaves both policies one step off a 4-cycle,
        # and which of the two looks better is the partitioner's
        # tie-break among zero-cut groupings.)
        return [
            (f"k{(i + min(week, 1)) % 4}", f"v{i % 4}") for i in range(400)
        ]

    online = weekly_series(week_pairs, 4, 2, "online")
    offline = weekly_series(week_pairs, 4, 2, "offline")
    assert online[3].locality == 1.0
    assert offline[3].locality <= 0.5
