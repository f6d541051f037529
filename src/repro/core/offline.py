"""Offline analysis: routing tables from a trace sample (Section 3.2).

When the workload is stable, correlations can be mined once from a
large sample and the resulting tables loaded at application start —
no manager, no migration. ``offline_tables`` is the convenience entry
point for the canonical two-stage application; it returns per-stream
:class:`~repro.core.routing_table.RoutingTable` objects ready to pass
to ``TableFieldsGrouping(key, table=...)``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.core.assignment import (
    DEFAULT_IMBALANCE,
    RoutedStream,
    plan_reconfiguration,
)
from repro.core.keygraph import KeyGraph
from repro.core.routing_table import RoutingTable


def offline_tables(
    pairs: Iterable[Tuple[Hashable, Hashable]],
    num_servers: int,
    in_stream: str = "S->A",
    out_stream: str = "A->B",
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
    max_edges: Optional[int] = None,
) -> Tuple[Dict[str, RoutingTable], float]:
    """Compute routing tables for a two-hop chain from a trace sample.

    Parameters
    ----------
    pairs:
        Observed ``(first key, second key)`` pairs, e.g.
        (location, hashtag) for the paper's Twitter application.
    num_servers:
        Cluster size; with the paper's placement (instance ``i`` on
        server ``i``), also the parallelism.

    Returns
    -------
    (tables, predicted_locality)
        ``tables`` maps each stream name to its routing table;
        ``predicted_locality`` is the co-location the partitioner
        achieves on the (truncated) sample itself.
    """
    graph = KeyGraph.from_stats(
        {(in_stream, out_stream): Counter(pairs).items()}
    )
    if max_edges is not None:
        graph = graph.top_edges(max_edges)
    placements = list(range(num_servers))
    streams = [  # preloaded at start: no state to migrate
        RoutedStream(in_stream, "S", "A", placements, stateful_dst=False),
        RoutedStream(out_stream, "A", "B", placements, stateful_dst=False),
    ]
    plan = plan_reconfiguration(
        graph, streams, num_servers, {}, imbalance=imbalance, seed=seed
    )
    return plan.tables, plan.predicted_locality
