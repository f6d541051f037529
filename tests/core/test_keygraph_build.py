"""The key graph and its level-0 partition graph: each trusted build
equals the validating one.

``KeyGraph.from_stats`` writes its pairs without an ``add_pair`` call
each: it must keep the vertex and edge insertion order and add the
weights in the same order, from ``ItemEstimate``s and from plain
``(pair, count)`` tuples alike.

``KeyGraph.to_partition_graph`` writes the partitioner's input through
``Graph.from_distinct_edges``, which checks and accumulates nothing per
edge. What it builds must be the graph the validating ``add_edge``
builds when fed ``KeyGraph._edges`` in order: the same rows in the same
order (the partitioner walks them, so the order reaches the partition),
the same vertex weights, and ``num_edges`` and ``total_edge_weight``
equal bit for bit. A self-pair is still rejected, with the same error.

No numpy: the ``chaos`` CI job runs this file without it.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keygraph import KeyGraph
from repro.errors import PartitioningError
from repro.partitioning import Graph
from repro.spacesaving import ItemEstimate


def _reference(keygraph: KeyGraph):
    """The build ``to_partition_graph`` replaced: validated ``add_edge``
    calls in ``_edges`` order."""
    vertices = sorted(keygraph._vertex_weights)
    index = {vertex: i for i, vertex in enumerate(vertices)}
    graph = Graph(
        len(vertices), [keygraph._vertex_weights[v] for v in vertices]
    )
    for (u, v), weight in keygraph._edges.items():
        graph.add_edge(index[u], index[v], weight)
    return graph, vertices


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_same_graph(built: Graph, reference: Graph) -> None:
    n = reference.num_vertices
    assert built.num_vertices == n
    rows = [list(built.neighbors(v).items()) for v in range(n)]
    ref_rows = [list(reference.neighbors(v).items()) for v in range(n)]
    assert rows == ref_rows
    assert [[_bits(w) for _, w in row] for row in rows] == [
        [_bits(w) for _, w in row] for row in ref_rows
    ]
    assert list(map(_bits, built.vertex_weights())) == list(
        map(_bits, reference.vertex_weights())
    )
    assert built.num_edges == reference.num_edges
    assert _bits(built.total_edge_weight) == _bits(
        reference.total_edge_weight
    )
    flat, ref_flat = built.flat(), reference.flat()
    assert flat.adj == ref_flat.adj
    assert flat.vwgt == ref_flat.vwgt
    assert _bits(flat.total_vertex_weight) == _bits(
        ref_flat.total_vertex_weight
    )


#: counts that are integers, binary fractions and fractions that no
#: binary float holds, so sums round differently in another order
_COUNTS = st.one_of(
    st.integers(1, 50),
    st.sampled_from([0.1, 0.2, 0.3, 1e-3, 2.5, 1 / 3, 7.7]),
    st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
)
#: a small key alphabet, so pairs repeat and accumulate
_KEYS = st.integers(0, 12)
_HOPS = [("S->A", "A->B"), ("A->B", "B->C"), ("S->A", "B->C")]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_HOPS), _KEYS, _KEYS, _COUNTS),
        max_size=120,
    )
)
def test_trusted_build_equals_add_edge(pairs):
    """Three streams share the middle ``A->B`` namespace, as a chain of
    three stateful operators does; ``(S->A, B->C)`` pairs cross it."""
    keygraph = KeyGraph()
    for (in_stream, out_stream), in_key, out_key, count in pairs:
        keygraph.add_pair(in_stream, in_key, out_stream, out_key, count)
    built, vertices = keygraph.to_partition_graph()
    reference, ref_vertices = _reference(keygraph)
    assert vertices == ref_vertices
    _assert_same_graph(built, reference)


#: per stream one key type: ints, text and tuples never meet in a sort
_STREAM_KEYS = {
    "A->B": st.integers(-50, 50),
    "B->C": st.text(max_size=3),
    "S->A": st.tuples(st.integers(0, 3), st.text(max_size=1)),
    "C->D": st.floats(allow_nan=False),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vertices_are_in_sorted_stream_key_order(data):
    """Vertex ids follow ``sorted`` over the (stream, key) vertices,
    whatever the streams and the order their pairs came in."""
    streams = data.draw(
        st.lists(st.sampled_from(sorted(_STREAM_KEYS)), min_size=2,
                 max_size=4, unique=True)
    )
    keygraph = KeyGraph()
    for _ in range(data.draw(st.integers(1, 60))):
        a, b = data.draw(st.permutations(streams))[:2]
        keygraph.add_pair(
            a, data.draw(_STREAM_KEYS[a]), b, data.draw(_STREAM_KEYS[b]), 1
        )
    _, vertices = keygraph.to_partition_graph()
    assert vertices == sorted(keygraph._vertex_weights)


def test_repeated_pairs_accumulate_before_the_build():
    keygraph = KeyGraph()
    for count in (0.1, 0.2, 0.3):
        keygraph.add_pair("S->A", "x", "A->B", "y", count)
        keygraph.add_pair("A->B", "y", "S->A", "x", count)
    keygraph.add_pair("A->B", "y", "B->C", "z", 1)
    built, _ = keygraph.to_partition_graph()
    reference, _ = _reference(keygraph)
    _assert_same_graph(built, reference)
    assert built.num_edges == 2


def test_empty_key_graph():
    built, vertices = KeyGraph().to_partition_graph()
    assert vertices == []
    _assert_same_graph(built, Graph(0))


def _error(keygraph: KeyGraph, build) -> str:
    with pytest.raises(PartitioningError) as caught:
        build(keygraph)
    return str(caught.value)


def test_self_pair_raises_what_add_edge_raises():
    keygraph = KeyGraph()
    keygraph.add_pair("s", 1, "s", 1, 1)
    assert _error(keygraph, KeyGraph.to_partition_graph) == _error(
        keygraph, _reference
    )


def test_first_self_pair_in_edge_order_is_named():
    keygraph = KeyGraph()
    keygraph.add_pair("S->A", 0, "A->B", 0, 2.0)
    keygraph.add_pair("A->B", 5, "A->B", 5, 1.0)
    keygraph.add_pair("S->A", 3, "S->A", 3, 1.0)
    message = _error(keygraph, KeyGraph.to_partition_graph)
    assert message == _error(keygraph, _reference)
    assert message.startswith("self-loop on vertex ")


def _weights_in_order(keygraph: KeyGraph):
    return (
        [(v, _bits(w)) for v, w in keygraph._vertex_weights.items()],
        [(e, _bits(w)) for e, w in keygraph._edges.items()],
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_HOPS),
            _KEYS,
            _KEYS,
            st.one_of(_COUNTS, st.sampled_from([0, -1, 0.0])),
        ),
        max_size=120,
    )
)
def test_from_stats_equals_add_pair(pairs):
    """Same vertices, edges, insertion order and weight bits as
    ``add_pair`` fed the positive counts hop by hop, in order; a count
    of zero or less is skipped."""
    tuples, estimates = {}, {}
    for hop, in_key, out_key, count in pairs:
        tuples.setdefault(hop, []).append(((in_key, out_key), count))
        estimates.setdefault(hop, []).append(
            ItemEstimate((in_key, out_key), count, 0)
        )
    reference = KeyGraph()
    for (in_stream, out_stream), hop_pairs in tuples.items():
        for (in_key, out_key), count in hop_pairs:
            if count > 0:
                reference.add_pair(
                    in_stream, in_key, out_stream, out_key, count
                )
    expected = _weights_in_order(reference)
    assert _weights_in_order(KeyGraph.from_stats(tuples)) == expected
    assert _weights_in_order(KeyGraph.from_stats(estimates)) == expected
