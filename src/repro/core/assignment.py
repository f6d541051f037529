"""From key graph to routing tables and migration lists.

``compute_assignment`` partitions the key graph across servers (the
paper's Metis step). ``plan_reconfiguration`` is the one planner of a
round of Algorithm 1: it turns the collected statistics into the
deployable artifacts — one routing table per table-routed stream (with
its hybrid split set), the per-operator state migration lists the
protocol ships inside its reconfiguration messages, and the optional
estimator's verdict. The manager, the trace evaluation and the offline
analysis all plan through it; none needs a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.keygraph import KeyGraph, KeyVertex
from repro.core.routing_table import RoutingTable
from repro.engine.grouping import hash_owner, key_owner, stream_seed
from repro.errors import ReconfigurationError
from repro.partitioning import partition

#: Default balance constraint α (Metis default, used by the paper).
DEFAULT_IMBALANCE = 1.03


@dataclass
class HybridConfig:
    """Tunables of hybrid (skew-resilient) routing.

    When a :class:`~repro.core.manager.ManagerConfig` carries one of
    these, every planning round re-derives each routed stream's *split
    set* from the merged sketches (:func:`select_splits`): keys whose
    observed frequency exceeds ``hot_fraction × total / n`` (a key's
    fair share scaled by ``hot_fraction``) are split over
    ``split_width`` instances anchored at their table owner. The split
    set ships inside the routing-table payload, so it obeys every rule
    tables already obey (atomic PROPAGATE swap, rescale resize, cache
    invalidation). Requires the sources to use
    ``HybridTableFieldsGrouping`` — a plain TableRouter silently ignores
    the split set and keeps pinning the hot key.
    """

    #: a key is hot when its weight exceeds this multiple of the
    #: per-instance fair share (total weight / n)
    hot_fraction: float = 0.5
    #: instances each hot key is spread over (clamped to n)
    split_width: int = 2
    #: cap on split keys per stream (heaviest first)
    max_split_keys: int = 8


@dataclass
class KeyAssignment:
    """A partition of namespaced keys over servers."""

    parts: Dict[KeyVertex, int]
    num_parts: int

    def server_of(self, stream: str, key: Hashable) -> Optional[int]:
        return self.parts.get((stream, key))

    def keys_of(self, stream: str) -> Dict[Hashable, int]:
        """key → server for one stream namespace."""
        return {
            key: part
            for (name, key), part in self.parts.items()
            if name == stream
        }

    def table_for(
        self, stream: str, server_to_instance: Mapping[int, int]
    ) -> RoutingTable:
        """Routing table for ``stream``: key → destination instance.

        Raises
        ------
        ReconfigurationError
            If a key is assigned to a server hosting no destination
            instance (cannot happen with the paper's one-instance-per-
            server placement).
        """
        mapping: Dict[Hashable, int] = {}
        for key, server in self.keys_of(stream).items():
            instance = server_to_instance.get(server)
            if instance is None:
                raise ReconfigurationError(
                    f"stream {stream!r}: key {key!r} assigned to server "
                    f"{server} which hosts no destination instance"
                )
            mapping[key] = instance
        return RoutingTable(mapping)


def compute_assignment(
    keygraph: KeyGraph,
    num_parts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
    max_edges: Optional[int] = None,
) -> KeyAssignment:
    """Partition the key graph into ``num_parts`` balanced parts.

    Parameters
    ----------
    max_edges:
        Keep only the heaviest ``max_edges`` pairs before partitioning
        (the statistics budget of Fig. 12); None keeps everything.
    """
    if num_parts < 1:
        raise ReconfigurationError(f"num_parts must be >= 1: {num_parts}")
    working = keygraph if max_edges is None else keygraph.top_edges(max_edges)
    graph, vertices = working.to_partition_graph()
    parts = partition(graph, num_parts, imbalance=imbalance, seed=seed)
    return KeyAssignment(
        parts=dict(zip(vertices, parts)), num_parts=num_parts
    )


def expected_locality(keygraph: KeyGraph, assignment: KeyAssignment) -> float:
    """Fraction of pair weight whose two keys share a server.

    This is the locality the partitioner *predicts* on the data it was
    given — the "Metis reports an expected locality of 75%" number of
    Section 4.3; achieved locality on future data is lower because of
    unseen keys.
    """
    total = 0.0
    colocated = 0.0
    for u, v, weight in keygraph.edges():
        total += weight
        if assignment.parts.get(u) == assignment.parts.get(v):
            colocated += weight
    if total == 0.0:
        return 1.0
    return colocated / total


# ----------------------------------------------------------------------
# Full reconfiguration planning
# ----------------------------------------------------------------------


@dataclass
class RoutedStream:
    """Deployment facts about one table-routed stream."""

    name: str
    src_op: str
    dst_op: str
    #: server hosting each destination instance
    dst_placements: Sequence[int]
    #: True when the destination operator holds keyed state to migrate
    stateful_dst: bool = True

    @property
    def hash_seed(self) -> int:
        """The seed ``deploy`` gives this stream's routers."""
        return stream_seed(self.name)

    def fallback_instance(self, key: Hashable) -> int:
        """The hash-fallback owner of ``key``."""
        return hash_owner(key, self.hash_seed, len(self.dst_placements))

    def owner(
        self, key: Hashable, table, strict: bool = True
    ) -> Tuple[int, bool]:
        """:func:`~repro.engine.grouping.key_owner` of ``key`` on this
        stream under ``table``: ``(instance, came_from_table)``."""
        return key_owner(
            key, table, self.hash_seed, len(self.dst_placements), strict
        )

    def server_to_instance(self) -> Dict[int, int]:
        mapping: Dict[int, int] = {}
        for instance, server in enumerate(self.dst_placements):
            if server in mapping:
                raise ReconfigurationError(
                    f"stream {self.name!r}: two destination instances on "
                    f"server {server}; locality-aware routing requires at "
                    f"most one instance per server"
                )
            mapping[server] = instance
        return mapping


@dataclass
class ReconfigurationPlan:
    """Everything needed to reconfigure the application."""

    #: stream name → new routing table
    tables: Dict[str, RoutingTable]
    #: op name → {(old_instance, new_instance) → [keys]}
    migrations: Dict[str, Dict[Tuple[int, int], List[Hashable]]]
    #: locality the partitioner predicts on the collected statistics
    predicted_locality: float
    #: the underlying key assignment
    assignment: KeyAssignment = field(repr=False, default=None)
    #: dst op → {key: members} chosen by hybrid planning (streams with
    #: an empty split set are absent)
    split_sets: Dict[str, Dict] = field(default_factory=dict, repr=False)
    #: the estimator's Estimate, when an estimator was given
    estimate: Optional[object] = None
    #: the estimator judged the plan not worth its migration cost
    vetoed: bool = False

    def total_moved_keys(self) -> int:
        return sum(
            len(keys)
            for per_op in self.migrations.values()
            for keys in per_op.values()
        )


def plan_migrations(
    old_table: RoutingTable,
    new_table: RoutingTable,
    stream: RoutedStream,
) -> Dict[Tuple[int, int], List[Hashable]]:
    """Per-(old, new)-instance-pair key lists moving between tables.

    Combines single-owner moves (:meth:`RoutingTable.moved_keys`) with
    split consolidations: a key split in ``old_table`` but not in
    ``new_table`` must gather its partial state from *every* old member
    onto the new owner, so it expands to one migration per old member.
    Keys split in ``new_table`` never migrate — their partial state
    stays put and new traffic spreads over the members.
    """
    per_pair: Dict[Tuple[int, int], List[Hashable]] = {}
    # stream.fallback_instance with the seed and width bound once, not
    # re-derived for every key a table names and the other does not
    fallback = partial(
        hash_owner,
        seed=stream.hash_seed,
        num_destinations=len(stream.dst_placements),
    )
    moved = old_table.moved_keys(new_table, fallback)
    for key, (old_instance, new_instance) in moved.items():
        per_pair.setdefault((old_instance, new_instance), []).append(key)
    consolidations = old_table.split_consolidations(new_table, fallback)
    for key, (members, new_owner) in consolidations.items():
        for member in members:
            if member == new_owner:
                continue
            per_pair.setdefault((member, new_owner), []).append(key)
    return per_pair


def select_splits(
    hybrid: HybridConfig,
    keygraph: KeyGraph,
    stream: RoutedStream,
    table: RoutingTable,
) -> Dict:
    """Deterministic split set for one stream: keys whose observed
    weight exceeds ``hot_fraction`` of the per-instance fair share,
    heaviest first (repr ties), split over ``split_width`` consecutive
    instances anchored at their owner under ``table``."""
    n = len(stream.dst_placements)
    width = min(hybrid.split_width, n)
    if width < 2:
        return {}
    weights = keygraph.stream_weights(stream.name)
    total = sum(weights.values())
    if total <= 0.0:
        return {}
    threshold = hybrid.hot_fraction * total / n
    hot = sorted(
        (key for key, weight in weights.items() if weight > threshold),
        key=lambda key: (-weights[key], repr(key)),
    )[: hybrid.max_split_keys]
    splits: Dict = {}
    for key in hot:
        owner, _ = stream.owner(key, table, strict=False)
        splits[key] = tuple(sorted((owner + j) % n for j in range(width)))
    return splits


def plan_reconfiguration(
    keygraph: KeyGraph,
    streams: Sequence[RoutedStream],
    num_servers: int,
    old_tables: Mapping[str, RoutingTable],
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
    max_edges: Optional[int] = None,
    hybrid: Optional[HybridConfig] = None,
    estimator=None,
) -> ReconfigurationPlan:
    """Compute new tables and migration lists for the routed streams.

    ``old_tables`` may omit streams that never had a table (hash-only
    routing so far); migration then compares against hash owners.
    With ``hybrid``, each new table carries its :func:`select_splits`
    split set. It is applied *before* the tables are diffed: against an
    unsplit new table every key that stays split would read as a
    consolidation. With ``estimator`` (a
    :class:`~repro.core.estimator.ReconfigurationEstimator`), the plan
    carries its estimate and is ``vetoed`` when the projected benefit
    falls short of ``margin ×`` the migration cost.
    """
    assignment = compute_assignment(
        keygraph, num_servers, imbalance=imbalance, seed=seed,
        max_edges=max_edges,
    )
    plan = ReconfigurationPlan(
        tables={},
        migrations={},
        predicted_locality=expected_locality(keygraph, assignment),
        assignment=assignment,
    )
    for stream in streams:
        new_table = assignment.table_for(
            stream.name, stream.server_to_instance()
        )
        if hybrid is not None:
            splits = select_splits(hybrid, keygraph, stream, new_table)
            if splits:
                plan.split_sets[stream.dst_op] = splits
            new_table = new_table.with_splits(splits)
        plan.tables[stream.name] = new_table
        if not stream.stateful_dst:
            continue
        old_table = old_tables.get(stream.name, RoutingTable.empty())
        per_pair = plan_migrations(old_table, new_table, stream)
        if not per_pair:
            continue
        existing = plan.migrations.setdefault(stream.dst_op, {})
        for pair, keys in per_pair.items():
            existing.setdefault(pair, []).extend(keys)

    if estimator is not None:
        plan.estimate = estimator.evaluate(
            keygraph, plan, old_tables, streams
        )
        plan.vetoed = not plan.estimate.worthwhile_with_margin(
            estimator.config.margin
        )
    return plan
