"""Trace-driven evaluation of routing policies.

For the locality / load-balance studies (Fig. 11 and 12) the paper
measures *where tuples would be routed*, which does not require timing
a cluster. This module replays (first key, second key) pairs through
the exact routing logic the engine uses — tables with hash fallback —
and reports locality and load balance per policy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.assignment import (
    DEFAULT_IMBALANCE,
    RoutedStream,
    plan_reconfiguration,
)
from repro.core.keygraph import KeyGraph
from repro.core.routing_table import RoutingTable
from repro.engine.grouping import key_owner
from repro.engine.metrics import load_balance
from repro.errors import WorkloadError
from repro.spacesaving import SpaceSaving

Pair = Tuple[Hashable, Hashable]


@dataclass
class EvalResult:
    """Routing quality of one policy over one trace window."""

    #: fraction of pairs whose two keys route to the same server
    locality: float
    #: max(load) / mean(load), worst over the two stateful POs
    load_balance: float
    #: per-instance tuple counts for the first and second hop
    loads_first: List[int] = field(repr=False, default_factory=list)
    loads_second: List[int] = field(repr=False, default_factory=list)
    #: fraction of pairs with at least one key missing from the tables
    unseen_fraction: float = 0.0
    pairs: int = 0


class TwoHopEvaluator:
    """Replays pairs through the two fields-grouped hops of the
    canonical application (location → hashtag, or tag → country)."""

    def __init__(
        self,
        num_servers: int,
        in_stream: str = "S->A",
        out_stream: str = "A->B",
    ) -> None:
        if num_servers < 1:
            raise WorkloadError(
                f"num_servers must be >= 1, got {num_servers}"
            )
        self.num_servers = num_servers
        placements = list(range(num_servers))
        self.first_hop = RoutedStream(
            in_stream, "S", "A", placements, stateful_dst=True
        )
        self.second_hop = RoutedStream(
            out_stream, "A", "B", placements, stateful_dst=True
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        pairs: Iterable[Pair],
        tables: Optional[Dict[str, RoutingTable]] = None,
    ) -> EvalResult:
        """Route every pair; ``tables=None`` evaluates pure hashing."""
        table1 = (tables or {}).get(self.first_hop.name)
        table2 = (tables or {}).get(self.second_hop.name)
        n = self.num_servers
        seed1 = self.first_hop.hash_seed
        seed2 = self.second_hop.hash_seed
        loads1 = [0] * n
        loads2 = [0] * n
        local = 0
        unseen = 0
        total = 0
        for first_key, second_key in pairs:
            owner1, known1 = key_owner(first_key, table1, seed1, n)
            owner2, known2 = key_owner(second_key, table2, seed2, n)
            loads1[owner1] += 1
            loads2[owner2] += 1
            if owner1 == owner2:
                local += 1
            if tables and not (known1 and known2):
                unseen += 1
            total += 1

        return EvalResult(
            locality=(local / total) if total else 1.0,
            load_balance=max(load_balance(loads1), load_balance(loads2)),
            loads_first=loads1,
            loads_second=loads2,
            unseen_fraction=(unseen / total) if total else 0.0,
            pairs=total,
        )

    # ------------------------------------------------------------------
    # Planning (the manager's analysis, trace-side)
    # ------------------------------------------------------------------

    def plan_tables(
        self,
        pairs: Iterable[Pair],
        sketch_capacity: Optional[int] = None,
        max_edges: Optional[int] = None,
        imbalance: float = DEFAULT_IMBALANCE,
        seed: int = 0,
    ) -> Tuple[Dict[str, RoutingTable], float]:
        """Compute routing tables from observed pairs.

        ``sketch_capacity`` bounds statistics collection with
        SpaceSaving (the online collector); None counts exactly (the
        offline analysis). ``max_edges`` further truncates the key
        graph before partitioning (the Fig. 12 budget).
        """
        if sketch_capacity is not None:
            sketch = SpaceSaving(sketch_capacity)
            for pair in pairs:
                sketch.offer(pair)
            estimates = sketch.items()
        else:
            estimates = Counter(pairs).items()
        hops = (self.first_hop.name, self.second_hop.name)
        graph = KeyGraph.from_stats({hops: estimates})
        if max_edges is not None:
            # Truncate before planning: the predicted locality is the
            # one the partitioner reaches on the budgeted graph.
            graph = graph.top_edges(max_edges)
        plan = plan_reconfiguration(
            graph,
            [self.first_hop, self.second_hop],
            self.num_servers,
            {},
            imbalance=imbalance,
            seed=seed,
        )
        return plan.tables, plan.predicted_locality


MODES = ("online", "offline", "hash-based")


def weekly_series(
    week_pairs_fn,
    weeks: int,
    num_servers: int,
    mode: str,
    sketch_capacity: Optional[int] = None,
    max_edges: Optional[int] = None,
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
) -> List[EvalResult]:
    """The Fig. 11 experiment loop for one policy.

    ``week_pairs_fn(week)`` yields that week's (key1, key2) pairs.
    Week ``w`` is evaluated with the tables available *before* it:
    nothing at week 0; with ``online`` the tables are then recomputed
    from week ``w``'s data (reconfiguration every week); with
    ``offline`` they are computed once, from week 0; ``hash-based``
    never uses tables.
    """
    if mode not in MODES:
        raise WorkloadError(f"unknown mode {mode!r}; expected one of {MODES}")
    evaluator = TwoHopEvaluator(num_servers)
    tables: Optional[Dict[str, RoutingTable]] = None
    results: List[EvalResult] = []
    for week in range(weeks):
        pairs = list(week_pairs_fn(week))
        results.append(evaluator.evaluate(pairs, tables))
        if mode == "online" or (mode == "offline" and week == 0):
            tables, _ = evaluator.plan_tables(
                pairs,
                sketch_capacity=sketch_capacity,
                max_edges=max_edges,
                imbalance=imbalance,
                seed=seed + week,
            )
    return results
