"""Tests for the offline analysis path."""

from collections import Counter

import pytest

from repro.core import KeyGraph, offline_tables
from repro.engine import (
    Cluster,
    CountBolt,
    RunConfig,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    run,
)
from repro.engine.operators import IteratorSpout


def test_from_stats_counts_repeated_pairs():
    pairs = [("asia", "#java"), ("asia", "#java"), ("asia", "#ruby")]
    graph = KeyGraph.from_stats({("S->A", "A->B"): Counter(pairs).items()})
    assert graph.pair_weight("S->A", "asia", "A->B", "#java") == 2
    assert graph.pair_weight("S->A", "asia", "A->B", "#ruby") == 1


def test_offline_tables_cover_sample_keys():
    pairs = [(i % 4, (i % 4) + 10) for i in range(1000)]
    tables, predicted = offline_tables(pairs, num_servers=2)
    assert set(tables) == {"S->A", "A->B"}
    for key in range(4):
        assert tables["S->A"].lookup(key) is not None
        assert tables["A->B"].lookup(key + 10) is not None
    # Each (k, k+10) pair can be fully co-located.
    assert predicted == 1.0


def test_offline_tables_colocate_correlated_keys():
    pairs = [(i % 4, (i % 4) + 10) for i in range(1000)]
    tables, _ = offline_tables(pairs, num_servers=2)
    for key in range(4):
        assert tables["S->A"].lookup(key) == tables["A->B"].lookup(key + 10)


def test_offline_tables_respect_max_edges():
    pairs = []
    for i in range(50):
        pairs.extend([(i, i + 100)] * (50 - i))
    tables, _ = offline_tables(pairs, num_servers=2, max_edges=10)
    assert len(tables["S->A"]) == 10


def test_offline_tables_loaded_at_startup_give_locality():
    """The offline workflow end-to-end: mine a sample, preload the
    tables, run without any manager (Section 3.4 first paragraph)."""
    n = 2
    sample = [(i % n, (i % n) + 100) for i in range(2000)]
    tables, _ = offline_tables(sample, num_servers=n)

    def source(ctx):
        import random

        rng = random.Random(ctx.instance_index)
        while True:
            key = rng.randrange(n)
            yield (key, key + 100)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=n)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=n,
        inputs={"S": TableFieldsGrouping(0, table=tables["S->A"])},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=n,
        inputs={"A": TableFieldsGrouping(1, table=tables["A->B"])},
    )
    result = run(
        builder.build(),
        RunConfig(duration_s=0.1, warmup_s=0.02, num_servers=n),
    )
    assert result.stream_locality["A->B"] == 1.0
