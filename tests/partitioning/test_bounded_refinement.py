"""Bounded work, counted not timed — and the hazards that come with a
boundary queue and a directly written coarse level."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning import Graph, edge_cut, part_weights, partition
from repro.partitioning import refine
from repro.partitioning.coarsen import coarsen
from repro.partitioning.matching import heavy_edge_matching
from repro.partitioning.refine import MOVE_LIMIT, fm_refine
from repro.testing import balance_bound

from .corpus import grid, random_sparse


class CountingList(list):
    """A partition vector that counts how often it is written."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def _violation(graph, parts, caps):
    weights = part_weights(graph, parts, 2)
    return max(0.0, weights[0] - caps[0]) + max(0.0, weights[1] - caps[1])


# ----------------------------------------------------------------------
# (b) bounded work
# ----------------------------------------------------------------------


def test_pass_at_a_local_optimum_stops_after_the_move_limit():
    # A 30x30 grid cut along a straight line: 900 vertices, 60 of them
    # on the boundary, no move improves. The old pass moved all 900.
    graph = grid(30)
    parts = CountingList(0 if v % 30 < 15 else 1 for v in range(900))
    before = list(parts)
    cut = fm_refine(graph, parts, (465.0, 465.0), max_passes=1)
    assert cut == 30.0 and list(parts) == before
    # every write is a move or its rollback
    assert 0 < parts.writes <= 2 * (MOVE_LIMIT + 1)


def _counted_writes(monkeypatch, graph, nparts):
    """Total writes to partition vectors inside FM passes during one
    ``partition()`` call."""
    total = 0
    fm_pass = refine._fm_pass

    def counted(flat, parts, weights, *caps):
        nonlocal total
        counting = CountingList(parts)
        result = fm_pass(flat, counting, weights, *caps)
        parts[:] = counting
        total += counting.writes
        return result

    monkeypatch.setattr(refine, "_fm_pass", counted)
    partition(graph, nparts, seed=0)
    monkeypatch.undo()
    return total


def test_refinement_moves_grow_no_faster_than_the_graph(monkeypatch):
    # Measured when written: 3.3k -> 4.7k writes (x1.4) at k = 2.
    small = _counted_writes(monkeypatch, random_sparse(2000), 2)
    large = _counted_writes(monkeypatch, random_sparse(8000), 2)
    assert 0 < small and large <= 4 * small


# ----------------------------------------------------------------------
# (c) refinement never makes things worse
# ----------------------------------------------------------------------


@st.composite
def bisection_cases(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    integral = draw(st.booleans())
    weights = [
        float(rng.randint(1, 6)) if integral else rng.uniform(0.5, 6.0)
        for _ in range(n)
    ]
    graph = Graph(n, weights)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        edge = float(rng.randint(1, 5)) if integral else rng.uniform(0.2, 5.0)
        if u != v:
            graph.add_edge(u, v, edge)
    parts = [rng.randrange(2) for _ in range(n)]
    # caps from generous to infeasible (sum below the total weight)
    share = draw(st.sampled_from([0.4, 0.5, 0.55, 0.75, 1.0]))
    caps = (share * sum(weights), share * sum(weights))
    return graph, parts, caps


@settings(max_examples=150, deadline=None)
@given(bisection_cases())
def test_fm_refine_never_returns_a_worse_bisection(case):
    graph, parts, caps = case
    violation_before = _violation(graph, parts, caps)
    cut_before = edge_cut(graph, parts)
    returned = fm_refine(graph, parts, caps)
    assert set(parts) <= {0, 1}
    assert returned == pytest.approx(edge_cut(graph, parts), abs=1e-6)
    violation_after = _violation(graph, parts, caps)
    assert violation_after <= violation_before + 1e-6
    if violation_after >= violation_before - 1e-6:
        assert edge_cut(graph, parts) <= cut_before + 1e-6


# ----------------------------------------------------------------------
# (d) what a boundary queue could miss
# ----------------------------------------------------------------------


def test_zero_cut_start_over_a_cap_is_rebalanced():
    # Two components, one per side: no boundary vertex exists, so only
    # seeding the overweight side lets the pass rebalance at all.
    big = [(i, i + 1, 1.0) for i in range(7)]  # path 0..7 on side 0
    graph = Graph.from_edges(10, big + [(8, 9, 1.0)])
    parts = [0] * 8 + [1] * 2
    assert edge_cut(graph, parts) == 0.0
    cut = fm_refine(graph, parts, (5.5, 5.5))
    assert _violation(graph, parts, (5.5, 5.5)) == 0.0
    assert cut == edge_cut(graph, parts) == 1.0


@pytest.mark.parametrize("nparts", [2, 4, 7])
@pytest.mark.parametrize("paired", [False, True])
def test_graphs_without_structure_partition_within_alpha(nparts, paired):
    # Only isolated vertices, or only disjoint pairs: coarsening ends at
    # once and every growth restart used to cost O(n).
    n = 3000
    edges = [(v, v + 1, 1.0) for v in range(0, n, 2)] if paired else []
    graph = Graph.from_edges(n, edges)
    parts = partition(graph, nparts, seed=0)
    assert edge_cut(graph, parts) == 0.0
    assert max(part_weights(graph, parts, nparts)) <= balance_bound(
        n, nparts, 1.0, 1.03
    )


# ----------------------------------------------------------------------
# (e) the directly written coarse level
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n=st.integers(min_value=1, max_value=40),
)
def test_coarsen_writes_a_valid_symmetric_level(seed, n):
    rng = random.Random(seed)
    graph = Graph(n, [rng.uniform(0.1, 9.0) for _ in range(n)])
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.uniform(0.01, 7.0))
    fine = graph.flat()
    level = coarsen(fine, heavy_edge_matching(fine, rng))
    coarse, mapping = level.coarse, level.fine_to_coarse

    assert coarse.total_vertex_weight == pytest.approx(
        fine.total_vertex_weight
    )
    assert len(coarse.vwgt) == len(coarse.adj) == coarse.num_vertices
    # what add_edge used to check, now true by construction
    for cu, row in enumerate(coarse.adj):
        neighbors = [cv for cv, _ in row]
        assert len(set(neighbors)) == len(neighbors)
        for cv, weight in row:
            assert 0 <= cv < coarse.num_vertices and cv != cu
            assert weight > 0
            # exactly symmetric, also for non-integer weights
            assert dict(coarse.adj[cv])[cu] == weight
    # every fine edge between two pairs survives, none inside a pair does
    crossing = sum(
        weight for u, v, weight in graph.edges() if mapping[u] != mapping[v]
    )
    kept = sum(
        w for cu, row in enumerate(coarse.adj) for cv, w in row if cu < cv
    )
    assert kept == pytest.approx(crossing)
