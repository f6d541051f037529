"""Greedy k-way refinement.

Recursive bisection optimizes each split in isolation; a final
Kernighan–Lin-style pass over the k-way result can still find moves
that reduce the cut globally (Metis does the same with its k-way
refinement). Each pass visits boundary vertices and applies the best
positive-gain move that respects the balance bound; passes repeat
until no move helps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import PartitioningError
from repro.partitioning.graph import FlatGraph, Graph

_EPSILON = 1e-9


def refine_kway(
    graph: Graph | FlatGraph,
    parts: List[int],
    nparts: int,
    imbalance: float = 1.03,
    max_passes: int = 4,
) -> int:
    """Refine a k-way partition in place.

    Returns the number of vertices moved. The balance bound follows
    the same granularity rule as the partitioner: a part may hold up
    to ``max(imbalance * ideal, ideal + heaviest_vertex)`` weight.
    """
    flat = graph.flat()
    n = flat.num_vertices
    if len(parts) != n:
        raise PartitioningError(
            f"partition vector has {len(parts)} entries for {n} vertices"
        )
    if nparts < 2 or n == 0:
        return 0

    vwgt = flat.vwgt
    weights = [0.0] * nparts
    for v, part in enumerate(parts):
        if not 0 <= part < nparts:
            raise PartitioningError(
                f"vertex {v} in part {part}, outside [0, {nparts})"
            )
        weights[part] += vwgt[v]
    ideal = sum(weights) / nparts
    cap = max(imbalance * ideal, ideal + flat.max_vertex_weight)

    moved_total = 0
    for _ in range(max_passes):
        moved = 0
        for v, row in enumerate(flat.adj):
            src = parts[v]
            internal = 0.0
            # Weight towards each *other* part; stays None for a vertex
            # with no neighbor across a boundary, which has no move.
            connection: Optional[Dict[int, float]] = None
            for neighbor, weight in row:
                part = parts[neighbor]
                if part == src:
                    internal += weight
                elif connection is None:
                    connection = {part: weight}
                else:
                    connection[part] = connection.get(part, 0.0) + weight
            if connection is None:
                continue
            vertex_weight = vwgt[v]

            best_part = src
            best_gain = 0.0
            for part, weight in connection.items():
                gain = weight - internal
                if gain <= best_gain + _EPSILON:
                    continue
                fits = weights[part] + vertex_weight <= cap + _EPSILON
                relieves = weights[src] > cap + _EPSILON and (
                    weights[part] + vertex_weight < weights[src]
                )
                if fits or relieves:
                    best_part = part
                    best_gain = gain
            if best_part != src:
                parts[v] = best_part
                weights[src] -= vertex_weight
                weights[best_part] += vertex_weight
                moved += 1
        moved_total += moved
        if moved == 0:
            break
    return moved_total
