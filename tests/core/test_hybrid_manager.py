"""Integration: the manager driving hybrid (hot-key splitting) routing.

A flash-crowd workload — correlated tail keys plus one shared hot key
every spout emits — runs under a manager configured with a
:class:`~repro.core.assignment.HybridConfig`. The manager must derive the
split set from the collected statistics, re-derive it every round, ship
it inside the routing-table payload, and keep per-key totals exact
across split/unsplit transitions and migrations.
"""

import random
from collections import Counter

from repro.core import Manager, ManagerConfig
from repro.core.assignment import HybridConfig
from repro.engine import (
    Cluster,
    CountBolt,
    HybridTableFieldsGrouping,
    Simulator,
    TopologyBuilder,
    deploy,
)
from repro.engine.grouping import HybridTableRouter
from repro.engine.operators import IteratorSpout

N = 3
PER_SPOUT = 20000
HOT_SHARE = 0.4
#: flash keys (ints: the key graph's vertex sort needs one key type
#: per stream, like every workload in this repo)
HOT_A = 999
HOT_B = 1999


def _hot_source(ctx):
    """Spout i mostly emits key i (correlated tail) but 40% of the
    stream is the shared flash key — far above any fair share."""
    rng = random.Random(ctx.instance_index)
    for _ in range(PER_SPOUT):
        if rng.random() < HOT_SHARE:
            yield (HOT_A, HOT_B)
        else:
            a = ctx.instance_index if rng.random() < 0.8 else rng.randrange(N)
            yield (a, a + 100)


def _ground_truth():
    truth_a, truth_b = Counter(), Counter()
    for i in range(N):
        rng = random.Random(i)
        for _ in range(PER_SPOUT):
            if rng.random() < HOT_SHARE:
                truth_a[HOT_A] += 1
                truth_b[HOT_B] += 1
            else:
                a = i if rng.random() < 0.8 else rng.randrange(N)
                truth_a[a] += 1
                truth_b[a + 100] += 1
    return truth_a, truth_b


def _build():
    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(_hot_source), parallelism=N)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=N,
        inputs={"S": HybridTableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=N,
        inputs={"A": HybridTableFieldsGrouping(1)},
    )
    return builder.build()


def _run(hybrid):
    sim = Simulator()
    cluster = Cluster(sim, N)
    deployment = deploy(sim, cluster, _build())
    manager = Manager(
        deployment, ManagerConfig(period_s=0.05, hybrid=hybrid)
    )
    manager.start()
    deployment.start()
    sim.run(until=0.5)
    manager.stop()
    sim.run()  # drain
    return deployment, manager


def _state_totals(deployment, op):
    totals = Counter()
    for executor in deployment.instances(op):
        for key, count in executor.operator.state.items():
            totals[key] += count
    return totals


def _split_routes(deployment, op):
    total = 0
    for executor in deployment.instances(op):
        for edge in executor.out_edges:
            if isinstance(edge.router, HybridTableRouter):
                total += edge.router.split_routes
    return total


class TestHybridManager:
    def test_splits_hot_key_and_conserves_every_total(self):
        deployment, manager = _run(
            HybridConfig(hot_fraction=0.5, split_width=2, max_split_keys=4)
        )

        # The hot key was detected and split on the S->A stream.
        split_rounds = [
            r for r in manager.completed_rounds if "A" in r.split_sets
        ]
        assert split_rounds, "no round ever split a key"
        assert any(
            HOT_A in r.split_sets["A"] for r in split_rounds
        ), "the flash key was never split"
        members = next(
            r.split_sets["A"][HOT_A]
            for r in split_rounds
            if HOT_A in r.split_sets["A"]
        )
        assert len(members) == 2
        assert all(0 <= m < N for m in members)

        # The split set is re-derived every planning round, not set
        # once: it shows up in multiple rounds, and rounds that start
        # with a split table record it for the invariant checkers.
        assert len(split_rounds) >= 2
        assert any(
            HOT_A in r.presplit_keys.get("A", {})
            for r in manager.completed_rounds
        )

        # Split traffic actually flowed through the split path.
        assert _split_routes(deployment, "S") > 0

        # The tentpole correctness claim: exact per-key totals across
        # split/unsplit transitions, consolidations and migrations.
        truth_a, truth_b = _ground_truth()
        assert _state_totals(deployment, "A") == truth_a
        assert _state_totals(deployment, "B") == truth_b

    def test_hot_partials_spread_across_member_instances(self):
        deployment, manager = _run(
            HybridConfig(hot_fraction=0.5, split_width=2, max_split_keys=4)
        )
        # While split, the hot key's state is held as partials on more
        # than one instance (unless the final round consolidated it
        # moments before the drain — accept either, but require that
        # splitting was observed at least once via the round records).
        hot_holders = [
            executor.instance
            for executor in deployment.instances("A")
            if executor.operator.state.get(HOT_A, 0) > 0
        ]
        assert hot_holders, "hot key state vanished"
        assert any(
            HOT_A in r.split_sets.get("A", {})
            for r in manager.completed_rounds
        )

    def test_disabled_hybrid_never_splits(self):
        """hybrid=None on the same topology: HybridTableFieldsGrouping
        degrades to pure table routing — no split sets, no split
        routes, and the totals still exact."""
        deployment, manager = _run(None)
        assert all(not r.split_sets for r in manager.rounds)
        assert all(not r.presplit_keys for r in manager.rounds)
        assert _split_routes(deployment, "S") == 0
        assert _split_routes(deployment, "A") == 0
        truth_a, truth_b = _ground_truth()
        assert _state_totals(deployment, "A") == truth_a
        assert _state_totals(deployment, "B") == truth_b
