"""Integration: delta-encoded propagation and compact tables through
the full reconfiguration protocol (Manager + ReconfigurationAgent).

The protocol guarantees must be representation-independent: per-key
state totals conserved, routers in agreement with the manager, and —
for non-compact configurations — the simulator event fingerprint
byte-identical whether tables ship as deltas or snapshots (delta
encoding changes payload *content*, never event timing).
"""

import random
from collections import Counter

from repro.core import (
    CompactRoutingTable,
    CompactTableConfig,
    Manager,
    ManagerConfig,
    TableDelta,
)
from repro.engine import (
    Cluster,
    CountBolt,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    deploy,
)
from repro.engine.operators import IteratorSpout

N = 3
PER_SPOUT = 12000


RANKS = 17  # keys per instance → ~RANKS*N distinct keys, so routing
# tables are big enough that delta encoding beats snapshots


def _emit(rng, instance):
    # mostly home keys (rank*N + instance → perfect locality), with a
    # 20% shuffle so tables keep changing a little every round
    rank = rng.randrange(RANKS)
    if rng.random() < 0.8:
        a = rank * N + instance
    else:
        a = rank * N + rng.randrange(N)
    return a


def _correlated_source(ctx):
    rng = random.Random(ctx.instance_index)
    for _ in range(PER_SPOUT):
        a = _emit(rng, ctx.instance_index)
        yield (a, a + 100)


def _ground_truth():
    truth_a, truth_b = Counter(), Counter()
    for i in range(N):
        rng = random.Random(i)
        for _ in range(PER_SPOUT):
            a = _emit(rng, i)
            truth_a[a] += 1
            truth_b[a + 100] += 1
    return truth_a, truth_b


def _build():
    builder = TopologyBuilder()
    builder.spout(
        "S", lambda: IteratorSpout(_correlated_source), parallelism=N
    )
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=N,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=N,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def _run(until=3.0, *, fingerprint=False, **config_kwargs):
    sim = Simulator()
    if fingerprint:
        sim.enable_fingerprint()
    cluster = Cluster(sim, N)
    deployment = deploy(sim, cluster, _build())
    manager = Manager(
        deployment, ManagerConfig(period_s=0.05, **config_kwargs)
    )
    manager.start()
    deployment.start()
    sim.run(until=until)
    return sim, deployment, manager


def _state_totals(deployment, op):
    totals = Counter()
    for executor in deployment.instances(op):
        for key, value in executor.operator.state.items():
            totals[key] += value
    return totals


def _assert_correct(deployment, manager):
    truth_a, truth_b = _ground_truth()
    assert _state_totals(deployment, "A") == truth_a
    assert _state_totals(deployment, "B") == truth_b
    # routers agree with the manager's authoritative plain tables
    for stream_name, table in manager.current_tables.items():
        stream = manager._streams_by_name[stream_name]
        for executor in deployment.instances(stream.src_op):
            held = executor.table_router(stream_name).table
            assert held == table


class TestDeltaPropagation:
    def test_delta_mode_preserves_protocol_guarantees(self):
        sim, deployment, manager = _run(delta_propagation=True)
        assert len(manager.completed_rounds) >= 2
        _assert_correct(deployment, manager)

    def test_delta_payloads_actually_shrink_after_first_round(self):
        sim, deployment, manager = _run(delta_propagation=True)
        registry = deployment.metrics.registry
        for stream_name in manager.current_tables:
            sent = registry.counter(
                "propagate_bytes_sent", stream=stream_name
            ).value
            saved = registry.counter(
                "propagate_bytes_saved", stream=stream_name
            ).value
            assert sent > 0
            # the first push is a snapshot; later rounds must save
            assert saved > 0

    def test_same_seed_fingerprint_matches_snapshot_mode(self):
        """Delta encoding changes payload content, not event timing:
        the simulator fingerprint must be byte-identical with deltas
        on and off (the acceptance bar for non-compact configs)."""
        sim_delta, _, _ = _run(fingerprint=True, delta_propagation=True)
        sim_full, _, _ = _run(fingerprint=True, delta_propagation=False)
        assert sim_delta.fingerprint != 0
        assert sim_delta.fingerprint == sim_full.fingerprint
        assert sim_delta.events_executed == sim_full.events_executed

    def test_payload_objects_are_deltas_after_first_round(self):
        sim, deployment, manager = _run(delta_propagation=True)
        plan_tables = manager.current_tables
        assert plan_tables
        # re-encode against the live bases: with a known base the
        # manager must produce TableDelta payloads
        for stream_name, table in plan_tables.items():
            manager._tables_before_round = dict(plan_tables)
            update = manager._encode_table_update(stream_name, table)
            assert isinstance(update, TableDelta)


class TestCompactTables:
    def test_compact_mode_preserves_protocol_guarantees(self):
        sim, deployment, manager = _run(
            compact_tables=CompactTableConfig()
        )
        assert len(manager.completed_rounds) >= 2
        _assert_correct(deployment, manager)
        # data-plane routers actually hold compact tables
        held_types = set()
        for stream_name in manager.current_tables:
            stream = manager._streams_by_name[stream_name]
            for executor in deployment.instances(stream.src_op):
                held_types.add(
                    type(executor.table_router(stream_name).table)
                )
        assert held_types == {CompactRoutingTable}

    def test_compact_without_deltas(self):
        sim, deployment, manager = _run(
            compact_tables=CompactTableConfig(), delta_propagation=False
        )
        assert len(manager.completed_rounds) >= 2
        _assert_correct(deployment, manager)

    def test_compact_metrics_are_registered(self):
        sim, deployment, manager = _run(
            compact_tables=CompactTableConfig()
        )
        registry = deployment.metrics.registry
        names = {sample["metric"] for sample in registry.collect()}
        assert "compact_filter_rejects" in names
        assert "compact_filter_false_positives" in names
        assert "compact_false_route_budget" in names
        assert "routing_table_bytes" in names
        assert "routing_filter_bytes" in names
        # counters follow the delta lineage across table swaps, so the
        # summed gauge accumulates instead of zeroing every round
        assert registry.value("compact_table_lookups") > 0

    def test_abort_resync_pushes_full_compact_tables(self):
        """After an abort the manager force-pushes full tables; in
        compact mode routers must come back holding compact tables
        equal to the manager's plain ones."""
        sim, deployment, manager = _run(
            until=1.0, compact_tables=CompactTableConfig()
        )
        manager._tables_before_round = dict(manager.current_tables)
        manager._push_tables()
        _assert_correct(deployment, manager)
