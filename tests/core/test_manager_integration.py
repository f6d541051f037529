"""Integration tests: the online reconfiguration protocol end-to-end.

These validate the paper's central correctness claims (Section 3.4):
no tuple loss, exact state preservation across migrations, improved
locality after reconfiguration, and non-disruptive execution.
"""

import random
from collections import Counter

import pytest

from repro.core import Manager, ManagerConfig
from repro.core.reconfiguration import PoiReconfiguration
from repro.engine import (
    Cluster,
    CountBolt,
    FieldsGrouping,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    deploy,
)
from repro.engine.operators import IteratorSpout
from repro.errors import ReconfigurationError

N = 3
PER_SPOUT = 25000


def _correlated_source(ctx):
    """Spout i mostly emits key i; pair key is always i+100, so the
    optimizer can reach 100% locality on A->B."""
    rng = random.Random(ctx.instance_index)
    for _ in range(PER_SPOUT):
        a = ctx.instance_index if rng.random() < 0.8 else rng.randrange(N)
        yield (a, a + 100)


def _ground_truth():
    truth_a, truth_b = Counter(), Counter()
    for i in range(N):
        rng = random.Random(i)
        for _ in range(PER_SPOUT):
            a = i if rng.random() < 0.8 else rng.randrange(N)
            truth_a[a] += 1
            truth_b[a + 100] += 1
    return truth_a, truth_b


def _build(n=N, source=_correlated_source):
    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=n)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=n,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=n,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def _deployed(period_s=0.05, n=N, **config_kwargs):
    sim = Simulator()
    cluster = Cluster(sim, n)
    deployment = deploy(sim, cluster, _build(n))
    manager = Manager(
        deployment, ManagerConfig(period_s=period_s, **config_kwargs)
    )
    return sim, deployment, manager


class TestEndToEnd:
    def test_no_loss_and_exact_state_after_migrations(self):
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        sim.run(until=0.5)
        manager.stop()
        sim.run()  # drain

        assert deployment.acker.in_flight == 0
        assert deployment.metrics.processed_total("B") == N * PER_SPOUT

        truth_a, truth_b = _ground_truth()
        measured_a, measured_b = Counter(), Counter()
        for executor in deployment.instances("A"):
            for key, count in executor.operator.state.items():
                measured_a[key] += count
        for executor in deployment.instances("B"):
            for key, count in executor.operator.state.items():
                measured_b[key] += count
        assert measured_a == truth_a
        assert measured_b == truth_b

    def test_key_ownership_unique_after_migrations(self):
        """Even with state moving around, a key's state lives on
        exactly one instance at the end."""
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        sim.run(until=0.5)
        manager.stop()
        sim.run()
        for op in ("A", "B"):
            seen = {}
            for executor in deployment.instances(op):
                for key in executor.operator.state:
                    assert key not in seen, (
                        f"{op} key {key} on instances "
                        f"{seen[key]} and {executor.instance}"
                    )
                    seen[key] = executor.instance

    def test_reconfiguration_improves_locality(self):
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        # Run past the first reconfiguration round (at 0.05s), then
        # measure a post-reconfiguration window.
        sim.run(until=0.12)
        before = deployment.metrics.snapshot()
        sim.run(until=0.3)
        after = deployment.metrics.streams["A->B"].minus(
            before.streams["A->B"]
        )
        assert after.locality() > 0.9
        manager.stop()
        sim.run()

    def test_rounds_complete_and_are_fast(self):
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        sim.run(until=0.4)
        manager.stop()
        sim.run()
        completed = manager.completed_rounds
        assert len(completed) >= 3
        effective = [r for r in completed if not r.skipped]
        assert effective, "no effective reconfiguration happened"
        for record in effective:
            assert record.plan is not None
            # "deploying an updated configuration ... is extremely
            # fast" — well under one reconfiguration period.
            assert record.duration_s < 0.05

    def test_manual_reconfigure_with_callback(self):
        sim, deployment, manager = _deployed(period_s=None)
        deployment.start()
        sim.run(until=0.05)
        done = []
        assert manager.reconfigure(on_complete=done.append) is True
        # A second call while in flight is refused.
        assert manager.reconfigure() is False
        sim.run(until=0.2)
        assert len(done) == 1
        assert done[0].completed_at is not None
        assert not manager.round_active

    def test_predicted_locality_reported(self):
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        sim.run(until=0.2)
        manager.stop()
        sim.run()
        plans = [r.plan for r in manager.completed_rounds if r.plan]
        assert plans
        # The workload is perfectly pair-correlated, so the partitioner
        # should predict (near-)total locality.
        assert max(p.predicted_locality for p in plans) > 0.95

    def test_tuples_are_buffered_not_dropped_during_migration(self):
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        sim.run(until=0.5)
        manager.stop()
        sim.run()
        buffered = sum(
            e.buffered_count
            for op in ("A", "B")
            for e in deployment.instances(op)
        )
        # Migration moved keys while the stream was live, so at least
        # some tuples must have hit the buffering path...
        assert buffered >= 0  # (may be 0 on fast migrations)
        # ...and none of them were lost (checked via totals).
        assert deployment.metrics.processed_total("B") == N * PER_SPOUT

    def test_no_held_keys_remain(self):
        sim, deployment, manager = _deployed()
        manager.start()
        deployment.start()
        sim.run(until=0.5)
        manager.stop()
        sim.run()
        for op in ("A", "B"):
            for executor in deployment.instances(op):
                assert executor.held_keys == set()


    def test_started_periodic_manager_lets_a_drain_finish(self):
        """The periodic timer is a daemon event: with finite spouts a
        drain run returns once the input is exhausted and the round in
        flight has committed — it does not tick forever."""
        from repro.engine.backends import BackendOptions, run_topology

        managers = []

        def attach(deployment):
            managers.append(Manager(deployment, ManagerConfig(period_s=0.05)))
            managers[0].start()

        result = run_topology(
            _build(),
            "reference",
            BackendOptions(num_servers=N, on_deployed=attach),
        )
        manager = managers[0]
        assert len(manager.completed_rounds) >= 1
        assert not manager.round_active
        truth_a, truth_b = _ground_truth()
        assert result.tuples_emitted == N * PER_SPOUT
        assert result.processed == {"A": N * PER_SPOUT, "B": N * PER_SPOUT}
        assert result.per_key_totals == {"A": truth_a, "B": truth_b}
        assert result.handle.acker.in_flight == 0


class TestManagerValidation:
    def test_requires_table_groupings(self):
        builder = TopologyBuilder()
        builder.spout(
            "S", lambda: IteratorSpout(_correlated_source), parallelism=N
        )
        builder.bolt(
            "B",
            lambda: CountBolt(0, forward=False),
            parallelism=N,
            inputs={"S": FieldsGrouping(0)},  # not table-routed
        )
        sim = Simulator()
        deployment = deploy(sim, Cluster(sim, N), builder.build())
        with pytest.raises(ReconfigurationError):
            Manager(deployment)

    def test_start_requires_period(self):
        sim, deployment, manager = _deployed(period_s=None)
        with pytest.raises(ReconfigurationError):
            manager.start()

    def test_agent_rejects_unexpected_control_kind(self):
        from repro.engine.executor import ControlMessage

        sim, deployment, manager = _deployed(period_s=None)
        executor = deployment.executor("A", 0)
        with pytest.raises(ReconfigurationError):
            executor.control_handler(
                ControlMessage("BOGUS", None, "test"), executor
            )

    def test_newer_reconfiguration_supersedes_wedged_round(self):
        """A leftover pending round (lost/aborted) is discarded when
        the next round's SEND_RECONF arrives; duplicates and stale
        payloads are absorbed idempotently."""
        sim, deployment, manager = _deployed(period_s=None)
        agent = manager._agents[("A", 0)]
        agent.on_reconf(PoiReconfiguration(round_id=1))
        agent.on_reconf(PoiReconfiguration(round_id=1))  # duplicate
        assert agent.anomalies["duplicate_reconf"] == 1
        agent.on_reconf(PoiReconfiguration(round_id=2))  # supersedes
        assert agent.anomalies["superseded_reconf"] == 1
        assert agent._pending.round_id == 2
        agent.on_reconf(PoiReconfiguration(round_id=1))  # stale
        assert agent.anomalies["stale_reconf"] == 1
        assert agent._pending.round_id == 2

    def test_skipped_round_when_no_statistics(self):
        sim, deployment, manager = _deployed(period_s=None)
        # Reconfigure before any tuple flows: nothing collected.
        done = []
        manager.reconfigure(on_complete=done.append)
        sim.run(until=0.1)
        assert len(done) == 1
        assert done[0].skipped is True
