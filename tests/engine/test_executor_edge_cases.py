"""Edge cases and failure injection at the executor level."""

import pytest

from repro.engine import Cluster, CountBolt, Simulator, TopologyBuilder, deploy
from repro.engine.executor import ControlMessage
from repro.engine.grouping import TableFieldsGrouping
from repro.engine.operators import IteratorSpout, PassThroughBolt
from repro.engine.tuples import Padding, make_tuple
from repro.errors import SimulationError


def _deployment(n=2, stateless_sink=False):
    def source(ctx):
        for i in range(10):
            yield (i % n, i % n)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=n)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=n,
        inputs={"S": TableFieldsGrouping(0)},
    )
    sink = PassThroughBolt if stateless_sink else (
        lambda: CountBolt(1, forward=False)
    )
    builder.bolt(
        "B",
        sink,
        parallelism=n,
        inputs={"A": TableFieldsGrouping(1)},
    )
    sim = Simulator()
    cluster = Cluster(sim, n)
    return sim, deploy(sim, cluster, builder.build())


def test_spout_rejects_data_delivery():
    sim, deployment = _deployment()
    spout = deployment.executor("S", 0)
    with pytest.raises(SimulationError):
        spout.deliver(make_tuple((1,), 0), False, "X")


def test_control_without_handler_raises():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 0)
    bolt.deliver_control(ControlMessage("PROPAGATE", 1, "test"))
    with pytest.raises(SimulationError):
        sim.run()


def test_unknown_output_stream_raises():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 0)
    with pytest.raises(SimulationError):
        bolt.out_edge("A->Z")
    with pytest.raises(SimulationError):
        bolt.table_router("A->Z")


def test_table_router_lookup_requires_table_grouping():
    def source(ctx):
        return iter(())

    from repro.engine.grouping import ShuffleGrouping

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=1)
    builder.bolt(
        "B", PassThroughBolt, parallelism=1,
        inputs={"S": ShuffleGrouping()},
    )
    sim = Simulator()
    deployment = deploy(sim, Cluster(sim, 1), builder.build())
    with pytest.raises(SimulationError):
        deployment.executor("S", 0).table_router("S->B")


def test_install_state_into_stateless_bolt_raises():
    sim, deployment = _deployment(stateless_sink=True)
    sink = deployment.executor("B", 0)
    with pytest.raises(SimulationError):
        sink.install_state({"k": 1})
    # Empty installs are a no-op even on stateless operators.
    sink.install_state({})


def test_extract_state_from_stateless_returns_empty():
    sim, deployment = _deployment(stateless_sink=True)
    sink = deployment.executor("B", 0)
    assert sink.extract_state(["a", "b"]) == {}


def test_hold_and_release_replays_in_order():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 0)
    bolt.hold_keys([7])
    for i in range(3):
        tup = make_tuple((7, i), 0)
        bolt.deliver(tup, False, "S")
    sim.run()
    # Nothing processed: all buffered.
    assert bolt.operator.count(7) == 0
    assert bolt.buffered_count == 3
    assert bolt.held_keys == {7}
    bolt.release_key(7)
    sim.run()
    assert bolt.operator.count(7) == 3
    assert bolt.held_keys == set()


def test_held_keys_do_not_block_other_keys():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 0)
    bolt.hold_keys([7])
    bolt.deliver(make_tuple((7, 0), 0), False, "S")
    bolt.deliver(make_tuple((3, 0), 0), False, "S")
    sim.run()
    assert bolt.operator.count(3) == 1
    assert bolt.operator.count(7) == 0


def test_release_unheld_key_is_noop():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 0)
    bolt.release_key("ghost")
    assert bolt.held_keys == set()


def test_plan_emissions_computes_payload_size_once(monkeypatch):
    """One emitted ``values`` costs exactly one ``payload_size`` walk,
    however many destination copies the routers produce (hoisted in
    ``BaseExecutor._plan_emissions``)."""
    import repro.engine.executor as executor_mod

    calls = []
    real = executor_mod.payload_size

    def counting(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(executor_mod, "payload_size", counting)
    _, deployment = _deployment()
    plan = deployment.executor("A", 0)._plan_emissions(
        [(1, 1, Padding(64))], root_id=None
    )
    assert len(plan) == 1  # table-routed: one destination copy
    assert len(calls) == 1


def test_close_is_idempotent():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 0)
    bolt.close()
    bolt.close()


def test_executor_name_and_context():
    sim, deployment = _deployment()
    bolt = deployment.executor("A", 1)
    assert bolt.name == "A[1]"
    context = bolt.make_context()
    assert context.operator_name == "A"
    assert context.instance_index == 1
    assert context.num_instances == 2
    assert context.server_index == bolt.server.index


def test_manager_requires_contiguous_servers():
    """A routed destination set with holes is rejected."""
    from repro.core import Manager, ManagerConfig
    from repro.errors import ReconfigurationError

    def source(ctx):
        while True:
            yield (1, 2)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=1)
    builder.bolt(
        "A", lambda: CountBolt(0), parallelism=2,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=False), parallelism=2,
        inputs={"A": TableFieldsGrouping(1)},
    )
    sim = Simulator()
    cluster = Cluster(sim, 4)
    # Place instances on servers 1 and 3 (holes at 0 and 2).
    deployment = deploy(
        sim, cluster, builder.build(),
        placement=lambda op, i, p: 1 + 2 * (i % 2),
    )
    manager = Manager(deployment, ManagerConfig(period_s=None))
    deployment.start()
    sim.run(until=0.01)
    manager.reconfigure()
    with pytest.raises(ReconfigurationError):
        sim.run(until=0.05)
