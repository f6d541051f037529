"""Tests for topology construction and validation."""

import pytest

from repro.engine import (
    Bolt,
    FieldsGrouping,
    ShuffleGrouping,
    Spout,
    TopologyBuilder,
    count_chain,
)
from repro.errors import TopologyError


class _NullSpout(Spout):
    def next_tuple(self, context):
        return False


class _NullBolt(Bolt):
    def process(self, tup, context):
        pass


def _chain_builder():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout, parallelism=2)
    builder.bolt("A", _NullBolt, parallelism=2, inputs={"S": FieldsGrouping(0)})
    builder.bolt("B", _NullBolt, parallelism=3, inputs={"A": FieldsGrouping(1)})
    return builder


def test_build_valid_chain():
    topology = _chain_builder().build()
    assert [op.name for op in topology.spouts] == ["S"]
    assert {op.name for op in topology.bolts} == {"A", "B"}
    assert topology.topological_order() == ["S", "A", "B"]
    assert topology.sinks() == ["B"]
    assert topology.operator("B").parallelism == 3
    assert topology.stream("S", "A").name == "S->A"


def test_inputs_and_outputs():
    topology = _chain_builder().build()
    assert [s.name for s in topology.inputs_of("A")] == ["S->A"]
    assert [s.name for s in topology.outputs_of("A")] == ["A->B"]
    assert topology.inputs_of("S") == []


def test_duplicate_operator_rejected():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    with pytest.raises(TopologyError):
        builder.spout("S", _NullSpout)


def test_duplicate_stream_rejected():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    builder.bolt("A", _NullBolt, inputs={"S": ShuffleGrouping()})
    with pytest.raises(TopologyError):
        builder.stream("S", "A", ShuffleGrouping())


def test_invalid_parallelism():
    builder = TopologyBuilder()
    with pytest.raises(TopologyError):
        builder.spout("S", _NullSpout, parallelism=0)


def test_stream_to_unknown_operator():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    builder.stream("S", "ghost", ShuffleGrouping())
    with pytest.raises(TopologyError):
        builder.build()


def test_spout_cannot_receive():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    builder.spout("T", _NullSpout)
    builder.stream("S", "T", ShuffleGrouping())
    with pytest.raises(TopologyError):
        builder.build()


def test_bolt_without_input_rejected():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    builder.bolt("orphan", _NullBolt)
    with pytest.raises(TopologyError):
        builder.build()


def test_topology_without_spout_rejected():
    builder = TopologyBuilder()
    builder.bolt("A", _NullBolt)
    with pytest.raises(TopologyError):
        builder.build()


def test_cycle_rejected():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    builder.bolt("A", _NullBolt, inputs={"S": ShuffleGrouping()})
    builder.bolt("B", _NullBolt, inputs={"A": ShuffleGrouping()})
    builder.stream("B", "A", ShuffleGrouping())
    with pytest.raises(TopologyError):
        builder.build()


def test_non_grouping_rejected():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    with pytest.raises(TopologyError):
        builder.bolt("A", _NullBolt, inputs={"S": "shuffle"})


def test_diamond_topology_order():
    builder = TopologyBuilder()
    builder.spout("S", _NullSpout)
    builder.bolt("L", _NullBolt, inputs={"S": ShuffleGrouping()})
    builder.bolt("R", _NullBolt, inputs={"S": ShuffleGrouping()})
    builder.bolt("J", _NullBolt, inputs={
        "L": FieldsGrouping(0), "R": FieldsGrouping(0)
    })
    topology = builder.build()
    order = topology.topological_order()
    assert order[0] == "S"
    assert order[-1] == "J"
    assert set(order[1:3]) == {"L", "R"}
    assert topology.sinks() == ["J"]
    assert len(topology.inputs_of("J")) == 2


def test_count_chain_is_the_papers_application():
    """``S -> A (count f0, forward) -> B (count f1)``: hop *i* counts
    field *i* and every hop but the last forwards."""
    groupings = [FieldsGrouping(0), FieldsGrouping(1)]
    topology = count_chain(lambda ctx: iter(()), 3, groupings)
    assert list(topology.operators) == ["S", "A", "B"]
    assert [s.name for s in topology.streams] == ["S->A", "A->B"]
    assert [s.grouping for s in topology.streams] == groupings
    assert {op.parallelism for op in topology.operators.values()} == {3}
    bolts = [topology.operator(name).factory() for name in "AB"]
    assert [(b.key_spec, b.forwards) for b in bolts] == [(0, True), (1, False)]

    one_hop = count_chain(
        lambda ctx: iter(()), 2, groupings[:1], spouts=5, names=["Z"]
    )
    assert [s.name for s in one_hop.streams] == ["S->Z"]
    assert one_hop.operator("S").parallelism == 5
    assert one_hop.operator("Z").parallelism == 2
    assert not one_hop.operator("Z").factory().forwards
