"""k-way partitioning by recursive multilevel bisection.

This is the entry point the rest of the library uses as its "Metis".
Targets are proportional (``total * k_side / nparts``) and the global
imbalance bound α is distributed geometrically across recursion levels so
the final partition respects it approximately, as Metis does.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.errors import PartitioningError
from repro.partitioning.coarsen import coarsen_until
from repro.partitioning.graph import FlatGraph, Graph
from repro.partitioning.initial import greedy_bisection
from repro.partitioning.kway_refine import refine_kway
from repro.partitioning.quality import part_weights, ratio_to_ideal
from repro.partitioning.refine import fm_refine

#: Default imbalance bound, matching the Metis default the paper uses
#: (Section 4.3: "α ... is indeed used and set to 1.03").
DEFAULT_IMBALANCE = 1.03

#: Stop coarsening below this many vertices; the coarsest graph is
#: partitioned directly by greedy growing.
COARSE_THRESHOLD = 60


def partition(
    graph: Graph,
    nparts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    kway_refinement: bool = True,
) -> List[int]:
    """Partition ``graph`` into ``nparts`` balanced parts.

    Parameters
    ----------
    graph:
        The weighted graph; vertex weights drive the balance constraint,
        edge weights drive the cut objective.
    nparts:
        Number of parts (>= 1). Part ids are ``0..nparts-1``; some parts
        may be empty in degenerate cases (more parts than vertices).
    imbalance:
        Allowed ratio between the heaviest part and the ideal weight
        ``total / nparts``. Must be >= 1.0.
    seed:
        Seed for the internal RNG (ignored when ``rng`` is given). The
        result is deterministic for a given (graph, nparts, seed).

    Returns
    -------
    list[int]
        ``parts[v]`` is the part of vertex ``v``.
    """
    if nparts < 1:
        raise PartitioningError(f"nparts must be >= 1, got {nparts}")
    if imbalance < 1.0:
        raise PartitioningError(
            f"imbalance must be >= 1.0, got {imbalance}"
        )
    if rng is None:
        rng = random.Random(seed)

    working = graph.flat()
    if working.total_vertex_weight <= 0:
        # All-zero weights make balance meaningless; fall back to
        # unit weights so the recursion still splits by vertex count.
        working = FlatGraph(working.adj, [1.0] * working.num_vertices)

    depth = max(1, math.ceil(math.log2(nparts)))
    level_imbalance = imbalance ** (1.0 / depth)

    parts = _recurse(working, nparts, level_imbalance, rng)
    if kway_refinement:
        refine_kway(working, parts, nparts, imbalance=imbalance)
    return parts


def balance_of(graph: Graph, parts: List[int], nparts: int) -> float:
    """Achieved balance ratio of an assignment: the heaviest part's
    weight over the ideal ``total / nparts``. 1.0 is perfect balance;
    rescale checks compare this against the α bound (plus the
    one-heaviest-vertex granularity slack :func:`partition` allows).
    Zero-weight graphs balance trivially (returns 0.0)."""
    if nparts < 1:
        raise PartitioningError(f"nparts must be >= 1, got {nparts}")
    weights = part_weights(graph, parts, nparts)
    total = sum(weights)
    return ratio_to_ideal(max(weights), total, nparts) if total > 0 else 0.0


def multilevel_bisection(
    graph: FlatGraph,
    target0: float,
    max_weights: Sequence[float],
    soft_weights: Sequence[float],
    rng: random.Random,
) -> List[int]:
    """Bisect ``graph`` into a 0/1 vector targeting weight ``target0``
    for part 0: coarsen, bisect the coarsest level by greedy growing,
    then project back level by level with FM refinement at each."""
    if graph.num_vertices < 2:
        return [0] * graph.num_vertices
    coarsest, levels = coarsen_until(graph, rng, min_vertices=COARSE_THRESHOLD)
    parts = greedy_bisection(coarsest, target0, max_weights, rng)
    fm_refine(coarsest, parts, max_weights, soft_weights=soft_weights)
    for level in reversed(levels):
        parts = level.project(parts)
        fm_refine(level.fine, parts, max_weights, soft_weights=soft_weights)
    return parts


def _recurse(
    graph: FlatGraph, nparts: int, level_imbalance: float, rng: random.Random
) -> List[int]:
    """Partition ``graph`` into parts ``0 .. nparts - 1`` by recursive
    bisection."""
    if nparts == 1 or graph.num_vertices == 0:
        return [0] * graph.num_vertices

    left = (nparts + 1) // 2
    total = graph.total_vertex_weight
    target0 = total * left / nparts
    targets = (target0, total - target0)
    soft = [level_imbalance * max(target, 1e-12) for target in targets]
    # Balance is bounded by vertex granularity: like Metis, accept at
    # least one extra heaviest-vertex of slack per side, otherwise tiny
    # graphs (few heavy keys) would be shattered just to meet α. That
    # slack is there to be kept, not spent: see ``fm_refine``.
    slack = graph.max_vertex_weight
    hard = [max(cap, t + slack) for cap, t in zip(soft, targets)]
    halves = multilevel_bisection(graph, target0, hard, soft, rng)

    parts = [0] * graph.num_vertices
    for side, count, offset in ((0, left, 0), (1, nparts - left, left)):
        members = [v for v, half in enumerate(halves) if half == side]
        if count == 1:  # a leaf: no subgraph, and no RNG draw either way
            for v in members:
                parts[v] = offset
            continue
        sub = _recurse(graph.subgraph(members), count, level_imbalance, rng)
        for v, part in zip(members, sub):
            parts[v] = offset + part
    return parts
