"""End-to-end tests and properties of the k-way partitioner."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.partitioning import Graph, balance, edge_cut, part_weights, partition
from repro.partitioning.graph import FlatGraph
from repro.partitioning.kway import balance_of


def _grid_graph(rows, cols):
    """Unit-weight grid; a classic easy-to-check partitioning input."""
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1.0))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1.0))
    return Graph.from_edges(rows * cols, edges)


def _clustered_graph(num_clusters, size, rng, internal=10.0, external=1.0):
    """num_clusters dense groups, sparse random links between them."""
    n = num_clusters * size
    edges = []
    for cluster in range(num_clusters):
        members = list(range(cluster * size, (cluster + 1) * size))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.append((u, v, internal))
    for _ in range(num_clusters * 2):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v, external))
    return Graph.from_edges(n, edges)


def test_parameter_validation():
    graph = Graph(4)
    with pytest.raises(PartitioningError):
        partition(graph, 0)
    with pytest.raises(PartitioningError):
        partition(graph, 2, imbalance=0.9)


def test_trivial_cases():
    assert partition(Graph(0), 4) == []
    assert partition(Graph(3), 1) == [0, 0, 0]


def test_more_parts_than_vertices():
    graph = Graph(2)
    parts = partition(graph, 5)
    assert len(parts) == 2
    assert all(0 <= p < 5 for p in parts)
    # The two vertices should not share a part.
    assert parts[0] != parts[1]


def test_deterministic_given_seed():
    rng = random.Random(0)
    graph = _clustered_graph(4, 8, rng)
    first = partition(graph, 4, seed=123)
    second = partition(graph, 4, seed=123)
    assert first == second


def test_recovers_planted_clusters():
    rng = random.Random(1)
    graph = _clustered_graph(4, 8, rng)
    parts = partition(graph, 4, seed=7)
    # Each planted cluster should land (almost) entirely in one part.
    for cluster in range(4):
        members = parts[cluster * 8 : (cluster + 1) * 8]
        dominant = max(set(members), key=members.count)
        assert members.count(dominant) >= 7
    assert balance(graph, parts, 4) <= 1.15


def test_grid_bisection_cut_is_reasonable():
    graph = _grid_graph(8, 8)
    parts = partition(graph, 2, seed=3)
    # Optimal cut of an 8x8 grid bisection is 8; allow some slack.
    assert edge_cut(graph, parts) <= 14.0
    weights = part_weights(graph, parts, 2)
    assert max(weights) <= 1.06 * 32


def test_weighted_vertices_balanced():
    rng = random.Random(2)
    weights = [rng.randint(1, 20) for _ in range(60)]
    edges = [
        (rng.randrange(60), rng.randrange(60), float(rng.randint(1, 5)))
        for _ in range(200)
    ]
    edges = [(u, v, w) for u, v, w in edges if u != v]
    graph = Graph.from_edges(60, edges, vertex_weights=weights)
    parts = partition(graph, 3, imbalance=1.1, seed=5)
    assert balance(graph, parts, 3) <= 1.35  # soft bound; see DESIGN.md


def test_zero_weight_graph_splits_by_count():
    graph = Graph(8, vertex_weights=[0.0] * 8)
    parts = partition(graph, 2, seed=1)
    counts = [parts.count(0), parts.count(1)]
    assert sorted(counts) == [4, 4]


@pytest.mark.parametrize(
    "nparts, subgraphs", [(2, 0), (3, 1), (4, 2), (5, 3), (8, 6)]
)
def test_subgraph_only_for_sides_of_two_or_more_parts(
    monkeypatch, nparts, subgraphs
):
    """A side that gets one part is that part: its members take the
    side's offset, and no subgraph of them is built. One subgraph per
    side that is split again (4-way: the two halves; 5-way: 3 + 2 at
    the root, then the 2 of the 3)."""
    calls = []
    build = FlatGraph.subgraph

    def counted(graph, vertices):
        calls.append(len(vertices))
        return build(graph, vertices)

    graph = _grid_graph(8, 8)
    expected = partition(graph, nparts, seed=3)
    monkeypatch.setattr(FlatGraph, "subgraph", counted)
    assert partition(graph, nparts, seed=3) == expected
    assert len(calls) == subgraphs
    assert all(calls)


def test_balance_of_a_subnormal_total():
    """``total / nparts`` underflows to 0 for the smallest subnormal
    total; the balance is still the heaviest part over the ideal."""
    graph = Graph(1, [5e-324])
    assert balance(graph, [0], 2) == 2.0
    assert balance_of(graph, [0], 2) == 2.0
    graph = Graph(2, [5e-324, 5e-324])
    assert balance(graph, [0, 1], 2) == balance_of(graph, [0, 1], 2) == 1.0


def test_balance_of_a_normal_total_is_max_over_ideal():
    graph = Graph(3, [0.1, 0.2, 0.4])
    parts = [0, 1, 1]
    weights = part_weights(graph, parts, 2)
    heaviest = max(weights)
    assert balance(graph, parts, 2) == heaviest / (
        graph.total_vertex_weight / 2
    )
    assert balance_of(graph, parts, 2) == heaviest / (sum(weights) / 2)


def test_bipartite_key_graph_from_paper_figure5():
    """The Figure 5 example: Asia/#java/#ruby vs Oceania/#python."""
    # Vertices: 0=Asia(7443) 1=Oceania(5190) 2=#java(4664) 3=#ruby(3892)
    #           4=#python(4077)
    graph = Graph.from_edges(
        5,
        [
            (0, 2, 3463.0),  # (Asia, #java)
            (0, 3, 3011.0),  # (Asia, #ruby)
            (0, 4, 969.0),   # (Asia, #python)
            (1, 2, 1201.0),  # (Oceania, #java)
            (1, 3, 881.0),   # (Oceania, #ruby)
            (1, 4, 3108.0),  # (Oceania, #python)
        ],
        vertex_weights=[7443, 5190, 4664, 3892, 4077],
    )
    # The paper's own split has imbalance 1.27 (15999 vs ideal 12633),
    # so the bound must be at least that loose for this example.
    parts = partition(graph, 2, imbalance=1.3, seed=0)
    # The paper: Asia, #java, #ruby together; Oceania with #python.
    assert parts[0] == parts[2] == parts[3]
    assert parts[1] == parts[4]
    assert parts[0] != parts[1]


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    nparts=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_partition_is_total_and_in_range(seed, nparts, n):
    rng = random.Random(seed)
    edges = []
    for _ in range(n * 2):
        u, v = rng.randrange(max(n, 1)), rng.randrange(max(n, 1))
        if n and u != v:
            edges.append((u, v, float(rng.randint(1, 9))))
    weights = [rng.randint(0, 10) for _ in range(n)]
    graph = Graph.from_edges(n, edges, vertex_weights=weights)
    parts = partition(graph, nparts, seed=seed)
    assert len(parts) == n
    assert all(0 <= p < nparts for p in parts)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_balance_bound_on_unit_weights(seed):
    """With unit weights and enough vertices, the α=1.1 bound holds
    (up to rounding of one vertex per part)."""
    graph = _grid_graph(6, 6)
    parts = partition(graph, 3, imbalance=1.1, seed=seed)
    weights = part_weights(graph, parts, 3)
    ideal = 36 / 3
    assert max(weights) <= 1.1 * ideal + 1.0


def test_larger_graph_smoke():
    rng = random.Random(9)
    graph = _clustered_graph(6, 40, rng)
    parts = partition(graph, 6, seed=11)
    assert balance(graph, parts, 6) <= 1.2
    # Cut should be far below total inter-cluster potential.
    assert edge_cut(graph, parts) < 0.05 * graph.total_edge_weight
