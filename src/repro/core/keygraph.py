"""The bipartite key graph (Section 3.3, Figure 5).

Vertices are keys, *namespaced by the stream they route* (so the same
value used as a location key and as a hashtag key stays two distinct
vertices). An edge between two keys is weighted by the number of tuples
carrying both; a vertex's weight is the total frequency of its key —
which equals the sum of its incident edge weights, as in Figure 5.

For DAGs longer than one pair of stateful POs, pairs observed at
different operators share the middle namespace's vertices, so one joint
partition optimizes the whole chain (the generalization sketched in the
paper's conclusion).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

from repro.partitioning import Graph

#: A namespaced key: (stream name, key value).
KeyVertex = Tuple[str, Hashable]


class KeyGraph:
    """Accumulates pair counts into a partitionable weighted graph."""

    def __init__(self) -> None:
        self._vertex_weights: Dict[KeyVertex, float] = {}
        self._edges: Dict[Tuple[KeyVertex, KeyVertex], float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pair(
        self,
        in_stream: str,
        in_key: Hashable,
        out_stream: str,
        out_key: Hashable,
        count: float,
    ) -> None:
        """Record that ``count`` tuples were routed by ``in_key`` then
        ``out_key``."""
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        u: KeyVertex = (in_stream, in_key)
        v: KeyVertex = (out_stream, out_key)
        self._vertex_weights[u] = self._vertex_weights.get(u, 0.0) + count
        self._vertex_weights[v] = self._vertex_weights.get(v, 0.0) + count
        if u > v:
            u, v = v, u
        self._edges[(u, v)] = self._edges.get((u, v), 0.0) + count

    @classmethod
    def from_stats(
        cls,
        stats: Mapping[Tuple[str, str], Iterable],
    ) -> "KeyGraph":
        """Build from collected statistics.

        ``stats`` maps ``(in_stream, out_stream)`` to an iterable of
        pair estimates: either ``ItemEstimate`` objects whose item is
        ``(in_key, out_key)``, or plain ``((in_key, out_key), count)``
        tuples.
        """
        graph = cls()
        for (in_stream, out_stream), estimates in stats.items():
            for estimate in estimates:
                if hasattr(estimate, "item"):
                    (in_key, out_key), count = estimate.item, estimate.count
                else:
                    (in_key, out_key), count = estimate
                if count > 0:
                    graph.add_pair(
                        in_stream, in_key, out_stream, out_key, count
                    )
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_weights)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def total_pair_weight(self) -> float:
        return sum(self._edges.values())

    def streams(self) -> List[str]:
        """Stream namespaces present, sorted."""
        return sorted({stream for stream, _ in self._vertex_weights})

    def vertex_weight(self, stream: str, key: Hashable) -> float:
        return self._vertex_weights.get((stream, key), 0.0)

    def stream_weights(self, stream: str) -> Dict[Hashable, float]:
        """key → total frequency for one stream namespace (the per-key
        traffic view hybrid planning ranks heavy hitters by)."""
        return {
            key: weight
            for (name, key), weight in self._vertex_weights.items()
            if name == stream
        }

    def pair_weight(
        self,
        in_stream: str,
        in_key: Hashable,
        out_stream: str,
        out_key: Hashable,
    ) -> float:
        u: KeyVertex = (in_stream, in_key)
        v: KeyVertex = (out_stream, out_key)
        if u > v:
            u, v = v, u
        return self._edges.get((u, v), 0.0)

    def edges(self) -> Iterable[Tuple[KeyVertex, KeyVertex, float]]:
        for (u, v), weight in self._edges.items():
            yield u, v, weight

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def top_edges(self, limit: int) -> "KeyGraph":
        """A copy keeping only the ``limit`` heaviest pairs — models the
        bounded statistics budget of Fig. 12."""
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        truncated = KeyGraph()
        ranked = sorted(
            self._edges.items(), key=lambda kv: kv[1], reverse=True
        )
        for (u, v), weight in ranked[:limit]:
            truncated.add_pair(u[0], u[1], v[0], v[1], weight)
        return truncated

    def to_partition_graph(self) -> Tuple[Graph, List[KeyVertex]]:
        """Materialize as a partitioner graph.

        Returns the graph and the vertex-id → key-vertex mapping. The
        level-0 graph is written through the trusted
        :meth:`Graph.from_distinct_edges`: :meth:`add_pair` already
        keeps one positive entry per pair over known vertices, so only
        a self-pair is left to reject. Ids and weights are mapped in C,
        one column at a time.

        Vertex ids follow ``sorted`` (stream, key) order, built stream
        by stream: each stream's keys are sorted by key alone, which
        spares a tuple comparison per step of the sort.
        """
        by_stream: Dict[str, List[KeyVertex]] = defaultdict(list)
        for vertex in self._vertex_weights:
            by_stream[vertex[0]].append(vertex)
        vertices: List[KeyVertex] = []
        for stream in sorted(by_stream):
            vertices += sorted(by_stream[stream], key=itemgetter(1))
        index = dict(zip(vertices, range(len(vertices))))
        ends = list(map(index.__getitem__, chain.from_iterable(self._edges)))
        graph = Graph.from_distinct_edges(
            list(map(float, map(self._vertex_weights.__getitem__, vertices))),
            ends[0::2],
            ends[1::2],
            list(self._edges.values()),
        )
        return graph, vertices

    def __repr__(self) -> str:
        return (
            f"KeyGraph(vertices={self.num_vertices}, edges={self.num_edges})"
        )
