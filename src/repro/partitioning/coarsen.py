"""Coarse graph construction from a matching.

Each matched pair (and each unmatched vertex) becomes one coarse vertex.
Coarse vertex weights are the sums of their constituents; parallel fine
edges are accumulated and edges internal to a pair disappear (they can
never be cut again at coarser levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.partitioning.graph import FlatGraph, Graph
from repro.partitioning.matching import heavy_edge_matching


@dataclass
class CoarseningLevel:
    """One level of the multilevel hierarchy.

    Attributes
    ----------
    fine:
        The finer graph.
    coarse:
        The coarser graph built from ``fine``.
    fine_to_coarse:
        ``fine_to_coarse[v]`` is the coarse vertex containing fine ``v``.
    """

    fine: FlatGraph
    coarse: FlatGraph
    fine_to_coarse: List[int]

    def project(self, coarse_parts: List[int]) -> List[int]:
        """Project a coarse partition vector back onto the fine graph."""
        return [coarse_parts[c] for c in self.fine_to_coarse]


def coarsen(graph: Graph | FlatGraph, match: List[int]) -> CoarseningLevel:
    """Collapse a matching into a coarse graph."""
    fine = graph.flat()
    vwgt = fine.vwgt
    fine_to_coarse = [-1] * fine.num_vertices
    coarse_weights: List[float] = []
    for v, partner in enumerate(match):
        if fine_to_coarse[v] != -1:
            continue
        fine_to_coarse[v] = len(coarse_weights)
        weight = vwgt[v]
        if partner != v:
            fine_to_coarse[partner] = len(coarse_weights)
            weight += vwgt[partner]
        coarse_weights.append(weight)

    # The coarse level is written directly: cu != cv is checked, ids
    # come from fine_to_coarse and weights are sums of positive weights,
    # so there is nothing for a validating add_edge to reject. Both
    # directions accumulate the same fine edges in the same order, which
    # keeps the level exactly symmetric for non-integer weights too.
    rows: List[Dict[int, float]] = [{} for _ in coarse_weights]
    for u, row in enumerate(fine.adj):
        cu = fine_to_coarse[u]
        coarse_row = rows[cu]
        for v, weight in row:
            if u < v:
                cv = fine_to_coarse[v]
                if cu != cv:
                    coarse_row[cv] = coarse_row.get(cv, 0.0) + weight
                    rows[cv][cu] = rows[cv].get(cu, 0.0) + weight
    coarse = FlatGraph([list(r.items()) for r in rows], coarse_weights)
    return CoarseningLevel(fine, coarse, fine_to_coarse)


def coarsen_until(
    graph: Graph | FlatGraph,
    rng,
    min_vertices: int,
) -> Tuple[FlatGraph, List[CoarseningLevel]]:
    """Repeatedly coarsen until the graph has at most ``min_vertices``
    vertices or a level shrinks it by less than 5 %, which happens on
    star-like graphs where matching saturates. Returns the coarsest
    graph and the levels, ordered from finest to coarsest.
    """
    levels: List[CoarseningLevel] = []
    current = graph.flat()
    while current.num_vertices > min_vertices:
        level = coarsen(current, heavy_edge_matching(current, rng))
        if level.coarse.num_vertices > 0.95 * current.num_vertices:
            break
        levels.append(level)
        current = level.coarse
    return current, levels
