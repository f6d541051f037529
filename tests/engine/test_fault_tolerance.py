"""Fault tolerance: message timeouts, spout replay, crash injection.

Section 3.4: "To handle fault tolerance ... If a POI crashes, the
guarantees are the ones provided by the streaming engine and are not
impacted by state migration." These tests implement and validate that
engine-level guarantee (Storm's at-least-once with acker timeouts) and
then confirm reconfiguration composes with it.
"""

import random

import pytest

from repro.engine import (
    Bolt,
    Cluster,
    CountBolt,
    FieldsGrouping,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    deploy,
)
from repro.engine.acker import Acker
from repro.engine.costs import DEFAULT_COSTS
from repro.engine.operators import IteratorSpout

N = 2
#: Big enough that the stream is still live when faults are injected
#: at t = 0.02 s (the pipeline sustains ~190 Ktuples/s on 2 servers).
PER_SPOUT = 6000


class RecordingSink(Bolt):
    """Remembers every sequence number it processes."""

    def __init__(self):
        self.seen = set()
        self.processed = 0

    def process(self, tup, context):
        self.seen.add(tup.values[1])
        self.processed += 1


def _build(per_spout=PER_SPOUT):
    def source(ctx):
        for i in range(per_spout):
            # (key, unique sequence number)
            yield (i % 10, ctx.instance_index * per_spout + i)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=N)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=N,
        inputs={"S": FieldsGrouping(0)},
    )
    builder.bolt(
        "sink",
        RecordingSink,
        parallelism=N,
        inputs={"A": FieldsGrouping(1)},
    )
    return builder.build()


def _deploy(message_timeout_s=0.05):
    sim = Simulator()
    cluster = Cluster(sim, N)
    deployment = deploy(
        sim, cluster, _build(), message_timeout_s=message_timeout_s
    )
    return sim, deployment


class TestAckerTimeouts:
    def test_timeout_fires_on_incomplete_tree(self):
        sim = Simulator()
        acker = Acker(sim, ack_delay_s=0.0, timeout_s=1.0)
        failed = []
        acker.register(1, lambda: None, on_fail=lambda: failed.append(1))
        sim.run()
        assert failed == [1]
        assert acker.failed == 1
        assert acker.in_flight == 0

    def test_completion_cancels_timeout(self):
        sim = Simulator()
        acker = Acker(sim, ack_delay_s=0.0, timeout_s=1.0)
        outcome = []
        acker.register(
            1, lambda: outcome.append("ok"),
            on_fail=lambda: outcome.append("fail"),
        )
        acker.on_processed(1, emitted=0)
        sim.run()
        assert outcome == ["ok"]
        assert acker.failed == 0

    def test_no_timeout_without_configuration(self):
        sim = Simulator()
        acker = Acker(sim, ack_delay_s=0.0)  # timeouts disabled
        acker.register(1, lambda: None, on_fail=lambda: None)
        sim.run(until=10.0)
        assert acker.in_flight == 1


class TestCrashAndReplay:
    def test_clean_run_without_faults_is_exactly_once(self):
        sim, deployment = _deploy()
        deployment.start()
        sim.run()
        seen = set()
        for executor in deployment.instances("sink"):
            seen |= executor.operator.seen
        assert len(seen) == N * PER_SPOUT
        assert deployment.acker.failed == 0

    def test_crash_loses_nothing_thanks_to_replay(self):
        sim, deployment = _deploy()
        deployment.start()
        # Crash one middle instance mid-stream, down for a while.
        sim.schedule(0.02, deployment.executor("A", 0).crash, 0.01)
        sim.run()
        seen = set()
        processed = 0
        for executor in deployment.instances("sink"):
            seen |= executor.operator.seen
            processed += executor.operator.processed
        # At-least-once: every sequence number reached the sink...
        assert seen == set(range(N * PER_SPOUT))
        # ...some of them more than once (replays).
        assert processed >= len(seen)
        assert deployment.acker.failed > 0
        spout_replays = sum(
            spout.replayed for spout in deployment.spout_executors()
        )
        assert spout_replays == deployment.acker.failed
        assert deployment.executor("A", 0).crash_count == 1

    def test_crash_drops_state_but_flow_recovers(self):
        sim, deployment = _deploy()
        deployment.start()
        target = deployment.executor("A", 1)
        sim.schedule(0.02, target.crash, 0.005)
        sim.run()
        # The crashed instance kept processing after its restart.
        assert sum(target.operator.state.values()) > 0
        assert deployment.acker.in_flight == 0

    def test_spout_finishes_after_replays_drain(self):
        sim, deployment = _deploy()
        deployment.start()
        sim.schedule(0.02, deployment.executor("A", 0).crash, 0.01)
        sim.run()
        for spout in deployment.spout_executors():
            assert spout.stopped
            assert spout.pending == 0

    def test_crash_during_reconfiguration_round(self):
        """Reconfiguration and crashes compose: the round completes and
        the stream still delivers everything at least once."""
        from repro.core import Manager, ManagerConfig

        def source(ctx):
            rng = random.Random(ctx.instance_index)
            for i in range(4000):
                key = rng.randrange(8)
                yield (key, ctx.instance_index * 4000 + i, key + 100)

        builder = TopologyBuilder()
        builder.spout("S", lambda: IteratorSpout(source), parallelism=N)
        builder.bolt(
            "A", lambda: CountBolt(0, forward=True), parallelism=N,
            inputs={"S": TableFieldsGrouping(0)},
        )
        builder.bolt(
            "sink", RecordingSink, parallelism=N,
            inputs={"A": TableFieldsGrouping(2)},
        )
        sim = Simulator()
        deployment = deploy(
            sim, Cluster(sim, N), builder.build(), message_timeout_s=0.08
        )
        manager = Manager(deployment, ManagerConfig(period_s=0.03))
        manager.start()
        deployment.start()
        sim.schedule(0.035, deployment.executor("sink", 0).crash, 0.005)
        sim.run(until=0.3)
        manager.stop()
        sim.run()
        seen = set()
        for executor in deployment.instances("sink"):
            seen |= executor.operator.seen
        assert seen == set(range(N * 4000))


class ServiceClock(Bolt):
    """Remembers when each tuple's service started."""

    def __init__(self):
        self.starts = []

    def process(self, tup, context):
        self.starts.append(context.now)


def _single_chain(count, bolt_factory, **deploy_kwargs):
    """1 spout → 1 bolt on one server, ``count`` tuples."""

    def source(ctx):
        for i in range(count):
            yield (i % 3, i)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=1)
    builder.bolt(
        "A", bolt_factory, parallelism=1, inputs={"S": FieldsGrouping(0)}
    )
    sim = Simulator()
    deployment = deploy(sim, Cluster(sim, 1), builder.build(), **deploy_kwargs)
    deployment.start()
    bolt = deployment.executor("A", 0)
    while bolt.idle:
        assert sim.step()
    return sim, deployment, bolt  # a batch is in service right now


class TestCrashEpoch:
    """A service event scheduled before a crash is stale after it,
    whether or not the instance is back up when it fires."""

    def test_batch_in_service_at_crash_is_lost_and_replayed(self):
        sim, deployment, bolt = _single_chain(
            4, lambda: CountBolt(0, forward=False), message_timeout_s=0.05
        )
        acker = deployment.acker
        bolt.crash(0.0)  # back up at once, long before the service end
        sim.run(until=0.01)
        assert not bolt.crashed
        # the state is gone, so nothing may claim to have produced it
        assert deployment.metrics.processed_total("A") == 0
        assert acker.completed == 0
        assert bolt.operator.state == {}
        sim.run()
        assert acker.failed == 4
        assert deployment.executor("S", 0).replayed == 4
        assert deployment.metrics.processed_total("A") == 4
        assert sum(bolt.operator.state.values()) == 4
        assert acker.in_flight == 0

    def test_one_service_chain_survives_a_zero_downtime_crash(self):
        service_s = 1e-3
        sim, deployment, bolt = _single_chain(
            64, ServiceClock,
            costs=DEFAULT_COSTS.with_overrides(bolt_service_s=service_s),
        )
        crashed_at = sim.now
        bolt.crash(0.0)
        sim.run()
        batches = {}  # service start -> tuples served from it
        for start in bolt.operator.starts:
            if start > crashed_at:
                batches[start] = batches.get(start, 0) + 1
        assert sum(batches.values()) == 64 - 8  # the first poll was lost
        # single-threaded: a batch starts when the one before is done
        starts = sorted(batches)
        for start, following in zip(starts, starts[1:]):
            assert following >= start + batches[start] * service_s - 1e-12
        assert bolt.idle
