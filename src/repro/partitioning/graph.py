"""Weighted undirected graph used by the partitioner.

Vertices are integers ``0..n-1``. Each vertex carries a non-negative
weight (key frequency, in the paper's usage) and each edge a positive
weight (key-pair co-occurrence count). Parallel edge insertions
accumulate; self-loops are rejected because they never contribute to an
edge cut.

:func:`random_order` is the one source of the partitioner's random
visiting orders.
"""

from __future__ import annotations

import operator
import random
from functools import reduce
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PartitioningError


def random_order(n: int, rng: random.Random) -> List[int]:
    """``list(range(n))`` permuted exactly as ``rng.shuffle`` permutes
    it: the same ``getrandbits`` calls in the same order, so the
    permutation and the generator's state afterwards are the same.

    ``shuffle`` draws ``j = rng._randbelow(i + 1)`` for ``i = n-1 .. 1``
    with one Python call per element; here the draws are inlined and
    the bit count, constant between powers of two, is computed once per
    power.
    """
    order = list(range(n))
    getrandbits = rng.getrandbits
    top = n - 1
    while top > 0:
        bits = (top + 1).bit_length()
        bottom = max(1, (1 << (bits - 1)) - 1)
        for i in range(top, bottom - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        top = bottom - 1
    return order


class FlatGraph:
    """Frozen flat form of one level of the multilevel hierarchy, which
    the partitioner gets once per call from :meth:`Graph.flat`.

    ``adj[v]`` is a plain list of ``(neighbor, edge_weight)`` pairs and
    ``vwgt[v]`` the weight of vertex ``v``; the vertex count, the total
    vertex weight and the heaviest vertex are computed once, here. The
    partitioner's inner loops read the two lists directly. Nothing is
    validated: an instance comes either from a validated :class:`Graph`
    or from code whose output is symmetric, loop-free, in range and
    positively weighted by construction (``coarsen``, ``subgraph``).
    """

    def __init__(
        self, adj: List[List[Tuple[int, float]]], vwgt: List[float]
    ) -> None:
        self.adj = adj
        self.vwgt = vwgt
        self.num_vertices = len(adj)
        self.total_vertex_weight = sum(vwgt)
        self.max_vertex_weight = max(vwgt, default=0.0)

    def flat(self) -> "FlatGraph":
        return self

    def subgraph(self, vertices: Sequence[int]) -> "FlatGraph":
        """Induced subgraph over distinct ``vertices``: subgraph vertex
        ``i`` is ``vertices[i]``."""
        index = [-1] * self.num_vertices
        for i, v in enumerate(vertices):
            index[v] = i
        rows = [
            [(index[u], w) for u, w in self.adj[v] if index[u] >= 0]
            for v in vertices
        ]
        return FlatGraph(rows, [self.vwgt[v] for v in vertices])


class Graph:
    """Adjacency-map weighted undirected graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0..num_vertices-1``.
    vertex_weights:
        Optional per-vertex weights (default: all 1.0). Must be
        non-negative.
    """

    __slots__ = ("_adj", "_vertex_weights", "_total_edge_weight", "_num_edges")

    def __init__(
        self,
        num_vertices: int,
        vertex_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if num_vertices < 0:
            raise PartitioningError(
                f"num_vertices must be >= 0, got {num_vertices}"
            )
        if vertex_weights is None:
            self._vertex_weights: List[float] = [1.0] * num_vertices
        else:
            if len(vertex_weights) != num_vertices:
                raise PartitioningError(
                    f"expected {num_vertices} vertex weights, "
                    f"got {len(vertex_weights)}"
                )
            weights = [float(w) for w in vertex_weights]
            if any(w < 0 for w in weights):
                raise PartitioningError("vertex weights must be >= 0")
            self._vertex_weights = weights
        self._adj: List[Dict[int, float]] = [{} for _ in range(num_vertices)]
        self._total_edge_weight = 0.0
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, float]],
        vertex_weights: Optional[Sequence[float]] = None,
    ) -> "Graph":
        """Build a graph from ``(u, v, weight)`` triples."""
        graph = cls(num_vertices, vertex_weights)
        for u, v, weight in edges:
            graph.add_edge(u, v, weight)
        return graph

    @classmethod
    def from_distinct_edges(
        cls,
        vertex_weights: List[float],
        heads: Sequence[int],
        tails: Sequence[int],
        weights: Sequence[float],
    ) -> "Graph":
        """Trusted build from distinct edges in parallel columns: edge
        ``i`` is ``{heads[i], tails[i]}`` of weight ``weights[i]``.

        The caller guarantees what :meth:`add_edge` would check: ids in
        range, each unordered pair at most once, positive edge weights
        and non-negative float vertex weights (``KeyGraph.add_pair``
        does). So nothing accumulates and nothing is checked per edge;
        only a self-loop is still rejected, as :meth:`add_edge` rejects
        it. The result equals :meth:`add_edge` in edge order: the same
        rows in the same order, and the same ``total_edge_weight`` bit
        for bit (a left-to-right sum, as the edges accumulate).
        ``vertex_weights`` is kept, not copied.
        """
        if any(map(operator.eq, heads, tails)):
            loop = next(u for u, v in zip(heads, tails) if u == v)
            raise PartitioningError(f"self-loop on vertex {loop} rejected")
        adj: List[Dict[int, float]] = [{} for _ in vertex_weights]
        for u, v, weight in zip(heads, tails, weights):
            adj[u][v] = weight
            adj[v][u] = weight
        graph = cls.__new__(cls)
        graph._adj = adj
        graph._vertex_weights = vertex_weights
        graph._num_edges = len(weights)
        graph._total_edge_weight = reduce(operator.add, weights, 0.0)
        return graph

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or accumulate onto) the undirected edge ``{u, v}``."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise PartitioningError(f"self-loop on vertex {u} rejected")
        if weight <= 0:
            raise PartitioningError(f"edge weight must be > 0, got {weight}")
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = self._adj[u].get(v, 0.0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0.0) + weight
        self._total_edge_weight += weight

    def set_vertex_weight(self, v: int, weight: float) -> None:
        self._check_vertex(v)
        if weight < 0:
            raise PartitioningError(f"vertex weight must be >= 0, got {weight}")
        self._vertex_weights[v] = float(weight)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def total_edge_weight(self) -> float:
        return self._total_edge_weight

    @property
    def total_vertex_weight(self) -> float:
        return sum(self._vertex_weights)

    def vertex_weight(self, v: int) -> float:
        self._check_vertex(v)
        return self._vertex_weights[v]

    def vertex_weights(self) -> List[float]:
        """A copy of the vertex weight vector."""
        return list(self._vertex_weights)

    def neighbors(self, v: int) -> Dict[int, float]:
        """Mapping neighbor -> edge weight. Do not mutate."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def adjacency_weight(self, v: int) -> float:
        """Sum of the weights of edges incident to ``v``."""
        self._check_vertex(v)
        return sum(self._adj[v].values())

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``, 0.0 if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj[u].get(v, 0.0)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` (u < v)."""
        for u, adjacency in enumerate(self._adj):
            for v, weight in adjacency.items():
                if u < v:
                    yield u, v, weight

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def flat(self) -> FlatGraph:
        """A frozen :class:`FlatGraph` copy of the current state."""
        rows = [list(row.items()) for row in self._adj]
        return FlatGraph(rows, list(self._vertex_weights))

    def subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", List[int]]:
        """Induced subgraph over ``vertices``.

        Returns
        -------
        (subgraph, selected)
            ``selected[i]`` is the original id of subgraph vertex ``i``.
        """
        selected = list(vertices)
        if len(set(selected)) != len(selected):
            raise PartitioningError("duplicate vertices in subgraph selection")
        induced = self.flat().subgraph(selected)
        edges = (
            (i, j, weight)
            for i, row in enumerate(induced.adj)
            for j, weight in row
            if i < j
        )
        return Graph.from_edges(len(selected), edges, induced.vwgt), selected

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise PartitioningError(
                f"vertex {v} out of range [0, {len(self._adj)})"
            )

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
