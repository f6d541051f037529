"""Initial bisection of the coarsest graph: greedy graph growing.

Greedy Graph Growing Partitioning (GGGP) grows part 0 from a random seed
vertex, repeatedly absorbing the frontier vertex whose move decreases the
cut the most, until part 0 reaches its target weight. Several attempts
with different seeds are made and the best bisection (fewest balance
violations, then smallest cut) is kept.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional, Sequence, Tuple

from repro.partitioning.graph import FlatGraph, Graph, random_order
from repro.partitioning.quality import edge_cut


def _grow_once(
    flat: FlatGraph, target0: float, rng: random.Random
) -> List[int]:
    """One GGGP growth: returns a 0/1 partition vector."""
    adj, vwgt = flat.adj, flat.vwgt
    n = flat.num_vertices
    parts = [1] * n
    # Growth (re)starts walk one shuffled order with a cursor, so a graph
    # of many components costs O(n) in restarts, not O(n) per restart.
    order = random_order(n, rng)
    cursor = 0
    weight0 = 0.0
    grown = 0
    # gains[v] = cut decrease when moving frontier vertex v into part 0
    gains: List[Optional[float]] = [None] * n
    heap: List[Tuple[float, int, int]] = []
    counter = 0
    while weight0 < target0 and grown < n:
        v = -1
        while heap:
            negative_gain, _, candidate = heapq.heappop(heap)
            if parts[candidate] == 1 and gains[candidate] == -negative_gain:
                v = candidate
                break
        if v == -1:
            # Frontier exhausted (start, or a disconnected graph).
            while parts[order[cursor]] == 0:
                cursor += 1
            v = order[cursor]
        parts[v] = 0
        grown += 1
        weight0 += vwgt[v]
        for neighbor, weight in adj[v]:
            if parts[neighbor] == 0:
                continue
            gain = gains[neighbor]
            if gain is None:
                gain = -sum(w for _, w in adj[neighbor])
            # Moving `neighbor` into part 0 now saves edge {v, neighbor}.
            gains[neighbor] = gain = gain + 2.0 * weight
            heapq.heappush(heap, (-gain, counter, neighbor))
            counter += 1
    return parts


def greedy_bisection(
    graph: Graph | FlatGraph,
    target0: float,
    max_weights: Sequence[float],
    rng: random.Random,
    attempts: int = 8,
) -> List[int]:
    """Best-of-``attempts`` GGGP bisection.

    Parameters
    ----------
    target0:
        Desired total vertex weight of part 0.
    max_weights:
        Hard caps ``(max_weight_part0, max_weight_part1)`` used to rank
        candidate bisections (violation is minimized first).
    """
    flat = graph.flat()
    if flat.num_vertices < 2:
        return [0] * flat.num_vertices

    def rank(parts: List[int]) -> Tuple[float, float]:
        weights = [0.0, 0.0]
        for weight, part in zip(flat.vwgt, parts):
            weights[part] += weight
        violation = max(0.0, weights[0] - max_weights[0]) + max(
            0.0, weights[1] - max_weights[1]
        )
        return violation, edge_cut(flat, parts)

    return min(
        (_grow_once(flat, target0, rng) for _ in range(max(1, attempts))),
        key=rank,
    )
