"""Fiduccia–Mattheyses (FM) boundary refinement for bisections.

FM performs passes of single-vertex moves. Within a pass every vertex
moves at most once (it is *locked* afterwards); moves are chosen greedily
by cut gain among moves that respect — or improve — the balance
constraint. The pass keeps the move prefix achieving the smallest cut and
rolls the rest back, which lets FM climb out of local minima that pure
greedy descent cannot.

A pass costs what it can gain, not the size of the level: its queue
starts from the boundary (vertices with a neighbor across the cut;
neighbors of moved vertices join as their gains change) and it ends
after :data:`MOVE_LIMIT` consecutive moves without a new best state.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional, Sequence, Tuple

from repro.partitioning.graph import FlatGraph, Graph

_EPSILON = 1e-9

#: Consecutive moves without a new best state after which a pass ends.
#: Metis scales this with the level, ``min(max(0.01 n, 15), 100)``; on
#: the quality corpus that cuts a 900-vertex grid 9-11 % worse than an
#: unbounded pass, while its upper end costs nothing measurable (see
#: DESIGN.md, "The partitioner").
MOVE_LIMIT = 100


def _gains(
    flat: FlatGraph, parts: Sequence[int], heavy: int
) -> Tuple[List[float], List[int], float]:
    """One sweep over the level: ``gains[v]`` = cut decrease if v
    switches sides (external minus internal weight); the vertices a pass
    starts from (those with an external neighbor, plus every vertex of
    side ``heavy``); and the edge cut, summed as ``edge_cut`` sums it."""
    gains: List[float] = []
    queue: List[int] = []
    cut = 0.0
    for v, row in enumerate(flat.adj):
        side = parts[v]
        gain = 0.0
        queued = side == heavy
        for neighbor, weight in row:
            if parts[neighbor] == side:
                gain -= weight
            else:
                gain += weight
                queued = True
                if v < neighbor:
                    cut += weight
        gains.append(gain)
        if queued:
            queue.append(v)
    return gains, queue, cut


def fm_refine(
    graph: Graph | FlatGraph,
    parts: List[int],
    max_weights: Sequence[float],
    max_passes: int = 8,
    soft_weights: Optional[Sequence[float]] = None,
) -> float:
    """Refine a 0/1 partition in place; return the final edge cut.

    Parameters
    ----------
    parts:
        Partition vector with entries in {0, 1}; modified in place.
    max_weights:
        Balance caps per side. A move into side ``d`` is admissible when
        the new weight of ``d`` stays under ``max_weights[d]``, or when
        the source side currently violates its own cap and the move
        shrinks the total violation.
    max_passes:
        Upper bound on FM passes (at least one runs); iteration stops
        earlier when a pass yields no improvement.
    soft_weights:
        Caps below ``max_weights`` (default: equal to them). The slack in
        between may be kept but not spent: a side past its soft cap does
        not get heavier for the sake of a lower cut.
    """
    flat = graph.flat()
    weights = [0.0, 0.0]
    for weight, part in zip(flat.vwgt, parts):
        weights[part] += weight
    soft = soft_weights or max_weights
    for _ in range(max(1, max_passes)):
        before, cut, gained = _fm_pass(flat, parts, weights, max_weights, soft)
        if cut >= before - _EPSILON and not gained:
            break
    return cut


def _fm_pass(
    flat: FlatGraph,
    parts: List[int],
    weights: List[float],
    max_weights: Sequence[float],
    soft_weights: Sequence[float],
) -> Tuple[float, float, bool]:
    """One FM pass. Returns ``(cut_before, cut_after, balance_improved)``;
    ``parts`` and ``weights`` are updated in place."""
    adj, vwgt = flat.adj, flat.vwgt
    over = [weights[0] - max_weights[0], weights[1] - max_weights[1]]
    start_violation = max(0.0, over[0]) + max(0.0, over[1])
    # A start that violates a cap also queues the whole overweight side:
    # a zero-cut unbalanced start has no boundary to rebalance from.
    heavy = over.index(max(over)) if start_violation > _EPSILON else -1
    gains, queue, start_cut = _gains(flat, parts, heavy)
    heap = [(-gains[v], seq, v) for seq, v in enumerate(queue)]
    heapify(heap)
    counter = len(heap)
    locked = [False] * flat.num_vertices
    # Intermediate states may exceed the caps by one vertex's weight;
    # the best-prefix rollback below guarantees the *returned* state is
    # never worse than the starting one on (violation, cut). Without
    # this slack, no swap could ever start from a tightly packed side.
    slack = flat.max_vertex_weight + _EPSILON

    # Past its soft cap a side may end the pass at most two average
    # vertices heavier than it began (Metis' tolerance: with none, runs
    # of one-directional leaf moves are lost and a bad start can stay).
    drift = 2.0 * flat.total_vertex_weight / max(1, flat.num_vertices)
    allowed = [max(s, w + drift) for s, w in zip(soft_weights, weights)]

    moves: List[int] = []
    cut = best_cut = start_cut
    best_violation = start_violation
    best_prefix = 0
    # Inadmissible heads wait here, by side, until a move makes room on
    # the side they want to enter (any other move only shuts them out
    # further, so re-queueing them earlier would just pop them again).
    stash: Tuple[List[Tuple[float, int, int]], ...] = ([], [])

    while heap and len(moves) - best_prefix < MOVE_LIMIT:
        entry = heappop(heap)
        v = entry[2]
        if locked[v] or gains[v] != -entry[0]:
            continue
        src = parts[v]
        dst = 1 - src
        vertex_weight = vwgt[v]
        over_src = weights[src] - max_weights[src]
        over_dst = weights[dst] - max_weights[dst]
        if over_dst + vertex_weight > slack:
            # Does not fit: admissible only if it shrinks the violation.
            before = max(0.0, over_src) + max(0.0, over_dst)
            after = (
                max(0.0, over_src - vertex_weight) + over_dst + vertex_weight
            )
            if after >= before - _EPSILON:
                stash[src].append(entry)
                continue

        cut -= gains[v]
        weights[src] -= vertex_weight
        weights[dst] += vertex_weight
        parts[v] = dst
        locked[v] = True
        moves.append(v)
        for neighbor, weight in adj[v]:
            if locked[neighbor]:
                continue
            if parts[neighbor] == src:
                gains[neighbor] += 2.0 * weight
            else:
                gains[neighbor] -= 2.0 * weight
            heappush(heap, (-gains[neighbor], counter, neighbor))
            counter += 1
        for entry in stash[dst]:
            heappush(heap, entry)
        stash[dst].clear()

        violation = max(0.0, weights[0] - max_weights[0]) + max(
            0.0, weights[1] - max_weights[1]
        )
        # Compared with a tolerance: weights that went away and came back
        # differ in the last bit, which must not outrank the cut.
        if violation < best_violation - _EPSILON or (
            violation <= best_violation + _EPSILON
            and cut < best_cut - _EPSILON
            and weights[0] <= allowed[0]
            and weights[1] <= allowed[1]
        ):
            best_violation = violation
            best_cut = cut
            best_prefix = len(moves)

    # Roll back moves after the best prefix.
    for v in moves[best_prefix:]:
        dst = parts[v]
        src = 1 - dst
        weights[dst] -= vwgt[v]
        weights[src] += vwgt[v]
        parts[v] = src

    return start_cut, best_cut, best_violation < start_violation - _EPSILON
