"""From key graph to routing tables and migration lists.

``compute_assignment`` partitions the key graph across servers (the
paper's Metis step). ``plan_reconfiguration`` turns an assignment into
the deployable artifacts: one routing table per table-routed stream,
plus the per-operator state migration lists the protocol ships inside
its reconfiguration messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
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
    moved = old_table.moved_keys(new_table, stream.fallback_instance)
    for key, (old_instance, new_instance) in moved.items():
        per_pair.setdefault((old_instance, new_instance), []).append(key)
    consolidations = old_table.split_consolidations(
        new_table, stream.fallback_instance
    )
    for key, (members, new_owner) in consolidations.items():
        for member in members:
            if member == new_owner:
                continue
            per_pair.setdefault((member, new_owner), []).append(key)
    return per_pair


def plan_reconfiguration(
    keygraph: KeyGraph,
    streams: Sequence[RoutedStream],
    num_servers: int,
    old_tables: Mapping[str, RoutingTable],
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
    max_edges: Optional[int] = None,
    splits_for: Optional[Callable] = None,
) -> ReconfigurationPlan:
    """Compute new tables and migration lists for the routed streams.

    ``old_tables`` may omit streams that never had a table (hash-only
    routing so far); migration then compares against hash owners.
    ``splits_for(stream, table)`` names the split set each new table
    carries (hybrid routing). It is applied *before* the tables are
    diffed: against an unsplit new table every key that stays split
    would read as a consolidation.
    """
    assignment = compute_assignment(
        keygraph, num_servers, imbalance=imbalance, seed=seed,
        max_edges=max_edges,
    )
    predicted = expected_locality(keygraph, assignment)

    tables: Dict[str, RoutingTable] = {}
    migrations: Dict[str, Dict[Tuple[int, int], List[Hashable]]] = {}
    for stream in streams:
        new_table = assignment.table_for(
            stream.name, stream.server_to_instance()
        )
        if splits_for is not None:
            new_table = new_table.with_splits(splits_for(stream, new_table))
        tables[stream.name] = new_table
        if not stream.stateful_dst:
            continue
        old_table = old_tables.get(stream.name, RoutingTable.empty())
        per_pair = plan_migrations(old_table, new_table, stream)
        if not per_pair:
            continue
        existing = migrations.setdefault(stream.dst_op, {})
        for pair, keys in per_pair.items():
            existing.setdefault(pair, []).extend(keys)

    return ReconfigurationPlan(
        tables=tables,
        migrations=migrations,
        predicted_locality=predicted,
        assignment=assignment,
    )
