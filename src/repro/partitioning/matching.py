"""Heavy-edge matching for the coarsening phase.

Heavy-edge matching (HEM) visits vertices in random order and matches
each unmatched vertex with the unmatched neighbor connected by the
heaviest edge. Collapsing heavy edges first keeps most of the cut weight
*inside* coarse vertices, which is what makes multilevel partitioning
effective (Karypis & Kumar 1998, Section 3.1).

On star-like graphs HEM alone strands every leaf but one per hub, so a
leaf whose hub is taken is paired with another leaf of the same hub
(the leaf case of Metis' two-hop matching): levels halve. A pair that
would outweigh :data:`MAX_PAIR_SHARE` of the level is not made, or hubs
snowball into one coarse vertex holding half the graph.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.partitioning.graph import FlatGraph, Graph, random_order

#: Three fair shares of the 60 vertices coarsening aims for (Metis'
#: ``maxvwgt`` is 1.5, which stalls a uniform graph just above 60).
#: Stretched to the level's heaviest vertex where one already weighs
#: more, and to two average vertices on graphs of under 40.
MAX_PAIR_SHARE = 0.05


def heavy_edge_matching(
    graph: Graph | FlatGraph, rng: random.Random
) -> List[int]:
    """Compute a heavy-edge matching.

    Returns
    -------
    match:
        ``match[v]`` is the vertex matched with ``v``; ``match[v] == v``
        when ``v`` stays unmatched (isolated, or all neighbors taken and
        no other leaf of its hub is free).
    """
    flat = graph.flat()
    adj, vwgt = flat.adj, flat.vwgt
    share = max(MAX_PAIR_SHARE, 2.0 / max(2, len(adj)))
    limit = max(flat.max_vertex_weight, share * flat.total_vertex_weight)
    match = [-1] * len(adj)
    waiting: Dict[int, int] = {}  # hub -> leaf left unmatched so far
    for v in random_order(len(adj), rng):
        if match[v] != -1:
            continue
        best_neighbor = v  # stays unmatched unless a free neighbor fits
        best_weight = -1.0
        room = limit - vwgt[v]
        for neighbor, weight in adj[v]:
            if (
                match[neighbor] == -1
                and weight > best_weight
                and vwgt[neighbor] <= room
            ):
                best_neighbor = neighbor
                best_weight = weight
        if best_neighbor == v and len(adj[v]) == 1:
            # A leaf whose hub is taken pairs with another such leaf.
            hub = adj[v][0][0]
            other = waiting.pop(hub, -1)
            if other != -1 and vwgt[other] <= room:
                best_neighbor = other
            else:
                waiting[hub] = v
        match[v] = best_neighbor
        match[best_neighbor] = v
    return match


def matching_size(match: List[int]) -> int:
    """Number of matched *pairs* in a matching vector."""
    return sum(1 for v, partner in enumerate(match) if partner > v)
