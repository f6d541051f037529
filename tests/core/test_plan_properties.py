"""Property-based tests of reconfiguration planning.

These check structural invariants of the plan for arbitrary observed
pair statistics — the properties the protocol's correctness rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KeyGraph,
    RoutingTable,
    compute_assignment,
    expected_locality,
    plan_reconfiguration,
)
from repro.core.assignment import HybridConfig, RoutedStream
from repro.core.estimator import EstimatorConfig, ReconfigurationEstimator

pair_counts = st.dictionaries(
    keys=st.tuples(
        st.integers(min_value=0, max_value=12),   # first-hop key
        st.integers(min_value=100, max_value=112),  # second-hop key
    ),
    values=st.integers(min_value=1, max_value=1000),
    min_size=1,
    max_size=40,
)

hybrid_configs = st.builds(
    HybridConfig,
    hot_fraction=st.floats(min_value=0.05, max_value=1.5),
    split_width=st.integers(min_value=1, max_value=5),
    max_split_keys=st.integers(min_value=1, max_value=6),
)


def _graph(counts):
    graph = KeyGraph()
    for (k1, k2), count in counts.items():
        graph.add_pair("S->A", k1, "A->B", k2, count)
    return graph


def _streams(n):
    return [
        RoutedStream("S->A", "S", "A", list(range(n))),
        RoutedStream("A->B", "A", "B", list(range(n))),
    ]


@given(counts=pair_counts, n=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_assignment_is_total_and_in_range(counts, n):
    graph = _graph(counts)
    assignment = compute_assignment(graph, n, seed=1)
    assert len(assignment.parts) == graph.num_vertices
    assert all(0 <= part < n for part in assignment.parts.values())
    locality = expected_locality(graph, assignment)
    assert 0.0 <= locality <= 1.0
    if n == 1:
        assert locality == 1.0


@given(counts=pair_counts, n=st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_tables_cover_exactly_the_observed_keys(counts, n):
    graph = _graph(counts)
    plan = plan_reconfiguration(graph, _streams(n), n, {})
    first_keys = {k1 for (k1, _) in counts}
    second_keys = {k2 for (_, k2) in counts}
    assert set(plan.tables["S->A"].keys()) == first_keys
    assert set(plan.tables["A->B"].keys()) == second_keys


@given(counts=pair_counts, n=st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_migrations_are_consistent_with_table_diffs(counts, n):
    """Every migrated key moves between exactly the instances that the
    old/new routing (with hash fallback) imply; no key moves twice."""
    graph = _graph(counts)
    streams = _streams(n)
    old = {
        "S->A": RoutingTable({k: 0 for (k, _) in counts}),
        "A->B": RoutingTable(),
    }
    plan = plan_reconfiguration(graph, streams, n, old)
    for stream in streams:
        per_pair = plan.migrations.get(stream.dst_op, {})
        seen = set()
        for (src, dst), keys in per_pair.items():
            assert src != dst
            assert 0 <= src < n and 0 <= dst < n
            for key in keys:
                assert key not in seen, "key migrated twice"
                seen.add(key)
                old_owner = old[stream.name].lookup(key)
                if old_owner is None:
                    old_owner = stream.fallback_instance(key)
                new_owner = plan.tables[stream.name].lookup(key)
                if new_owner is None:
                    new_owner = stream.fallback_instance(key)
                assert (old_owner, new_owner) == (src, dst)


@given(counts=pair_counts, n=st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_replanning_same_data_same_seed_is_stable(counts, n):
    """Planning twice from identical data and tables moves nothing."""
    graph = _graph(counts)
    streams = _streams(n)
    first = plan_reconfiguration(graph, streams, n, {}, seed=7)
    second = plan_reconfiguration(
        graph, streams, n, first.tables, seed=7
    )
    assert second.tables == first.tables
    assert second.total_moved_keys() == 0


@given(counts=pair_counts)
@settings(max_examples=30, deadline=None)
def test_predicted_locality_monotone_in_parts(counts):
    """More servers can only make co-location harder (weakly)."""
    graph = _graph(counts)
    one = expected_locality(graph, compute_assignment(graph, 1))
    many = expected_locality(graph, compute_assignment(graph, 6, seed=3))
    assert one >= many


def test_determinism_of_full_plan():
    counts = {(i, 100 + (i % 5)): 10 * (i + 1) for i in range(12)}
    graph = _graph(counts)
    streams = _streams(4)
    plans = [
        plan_reconfiguration(graph, streams, 4, {}, seed=9)
        for _ in range(3)
    ]
    for plan in plans[1:]:
        assert plan.tables == plans[0].tables
        assert plan.migrations == plans[0].migrations


def _old_tables(counts, n):
    """Pre-round tables: every first-hop key on instance 0 and, with
    two instances or more, the first two observed keys already split
    (consolidations and split-to-split transitions)."""
    first_keys = sorted({k1 for (k1, _) in counts})
    old = RoutingTable({k: 0 for k in first_keys})
    presplit = first_keys[:2] if n >= 2 else []
    return {"S->A": old.with_splits({k: (0, 1) for k in presplit})}


@given(
    counts=pair_counts,
    n=st.integers(min_value=1, max_value=5),
    hybrid=hybrid_configs,
)
@settings(max_examples=40, deadline=None)
def test_split_sets_are_anchored_at_the_table_owner(counts, n, hybrid):
    graph = _graph(counts)
    streams = _streams(n)
    plan = plan_reconfiguration(graph, streams, n, {}, hybrid=hybrid)
    width = min(hybrid.split_width, n)
    for stream in streams:
        table = plan.tables[stream.name]
        splits = plan.split_sets.get(stream.dst_op, {})
        assert dict(table.splits) == splits
        assert len(splits) <= hybrid.max_split_keys
        if width < 2:
            assert not splits
        for key, members in splits.items():
            owner = table.lookup(key)
            assert members == tuple(
                sorted((owner + j) % n for j in range(width))
            )


@given(
    counts=pair_counts,
    n=st.integers(min_value=2, max_value=5),
    hybrid=hybrid_configs,
)
@settings(max_examples=40, deadline=None)
def test_keys_split_in_the_new_table_never_migrate(counts, n, hybrid):
    graph = _graph(counts)
    streams = _streams(n)
    old = _old_tables(counts, n)
    plan = plan_reconfiguration(graph, streams, n, old, hybrid=hybrid)
    for stream in streams:
        split = set(plan.tables[stream.name].split_keys())
        for keys in plan.migrations.get(stream.dst_op, {}).values():
            assert not split & set(keys)


@given(
    counts=pair_counts,
    n=st.integers(min_value=1, max_value=5),
    horizon=st.integers(min_value=1, max_value=10_000_000),
    margin=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_veto_holds_iff_benefit_falls_short_of_margin(
    counts, n, horizon, margin
):
    graph = _graph(counts)
    streams = _streams(n)
    old = _old_tables(counts, n)
    estimator = ReconfigurationEstimator(
        EstimatorConfig(horizon_tuples=horizon, margin=margin)
    )
    plan = plan_reconfiguration(graph, streams, n, old, estimator=estimator)
    estimate = plan.estimate
    assert estimate == estimator.evaluate(graph, plan, old, streams)
    assert plan.vetoed == (
        estimate.benefit_bytes < margin * estimate.cost_bytes
    )
    unarmed = plan_reconfiguration(graph, streams, n, old)
    assert unarmed.estimate is None and not unarmed.vetoed
    assert unarmed.tables == plan.tables
