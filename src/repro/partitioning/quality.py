"""Partition quality metrics: edge cut and load balance."""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import PartitioningError
from repro.partitioning.graph import FlatGraph, Graph


def _check_length(graph: Graph | FlatGraph, parts: Sequence[int]) -> None:
    if len(parts) != graph.num_vertices:
        raise PartitioningError(
            f"partition vector has {len(parts)} entries for "
            f"{graph.num_vertices} vertices"
        )


def edge_cut(graph: Graph | FlatGraph, parts: Sequence[int]) -> float:
    """Total weight of edges whose endpoints are in different parts."""
    _check_length(graph, parts)
    cut = 0.0
    for u, row in enumerate(graph.flat().adj):
        part = parts[u]
        for v, weight in row:
            if u < v and parts[v] != part:
                cut += weight
    return cut


def part_weights(
    graph: Graph, parts: Sequence[int], nparts: int
) -> List[float]:
    """Total vertex weight per part."""
    _check_length(graph, parts)
    weights = [0.0] * nparts
    for v, (part, weight) in enumerate(zip(parts, graph.vertex_weights())):
        if not 0 <= part < nparts:
            raise PartitioningError(
                f"vertex {v} assigned to part {part}, outside [0, {nparts})"
            )
        weights[part] += weight
    return weights


def balance(graph: Graph, parts: Sequence[int], nparts: int) -> float:
    """Heaviest part's weight over the ideal ``total / nparts``.

    A perfectly balanced partition scores 1.0; the paper's constraint is
    that this value stays below the imbalance bound α (1.03 by default).
    """
    weights = part_weights(graph, parts, nparts)
    total = graph.total_vertex_weight
    if total <= 0:
        return 1.0
    return max(weights) / (total / nparts)
