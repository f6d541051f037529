"""The online reconfiguration protocol (Section 3.4, Algorithm 1).

Message flow, as in Figure 6 of the paper:

1. ``GET_METRICS``  — manager asks instrumented POIs for statistics;
2. ``SEND_METRICS`` — POIs reply with their SpaceSaving contents;
3. ``SEND_RECONF``  — manager ships each POI its new routing tables and
   its state send/receive lists; the POI starts *buffering* tuples for
   keys whose state it is about to receive;
4. ``ACK_RECONF``   — POIs acknowledge;
5. ``PROPAGATE``    — cascades through the DAG in topological order.
   A POI acts once it holds a PROPAGATE from *every* predecessor
   instance: it swaps its routing tables, migrates state, and forwards
   PROPAGATE downstream;
6. ``MIGRATE``      — peers exchange the state of reassigned keys;
   buffered tuples replay on arrival.

Because PROPAGATE and MIGRATE travel through the same FIFO channels as
data, a PROPAGATE acts as a barrier: every tuple routed with the old
table is delivered before it. Hence, by the time a POI extracts state,
it has processed all old-routed traffic — no tuple is lost and no
count is misplaced (validated by integration tests).

Steps 1–4 are manager↔POI RPCs and travel out-of-band (they do not
alter routing); steps 5–6 are in-band.

Robustness: the agent is *idempotent* with respect to the imperfect
deliveries repro.faults can inject. PROPAGATEs are deduplicated per
sender, MIGRATEs per (round, sender); stale messages (from an aborted
or superseded round) are absorbed instead of raising, and a stale
MIGRATE still installs its state entries so no count is ever destroyed.
Every absorbed anomaly is counted in :attr:`ReconfigurationAgent.anomalies`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.routing_table import RoutingTable
from repro.core.table_delta import TableDelta
from repro.engine.executor import BaseExecutor, ControlMessage
from repro.engine.grouping import key_owner
from repro.engine.operators import StatefulBolt
from repro.errors import ReconfigurationError

GET_METRICS = "GET_METRICS"
SEND_METRICS = "SEND_METRICS"
SEND_RECONF = "SEND_RECONF"
ACK_RECONF = "ACK_RECONF"
PROPAGATE = "PROPAGATE"
MIGRATE = "MIGRATE"
#: the manager↔POI RPC legs (steps 1–4), sorted: the event kinds of the
#: manager methods running them, and the steps an RPC fault may target
RPC_STEPS = (ACK_RECONF, GET_METRICS, SEND_METRICS, SEND_RECONF)


@dataclass
class EdgeUpdate:
    """What one out-edge adopts at PROPAGATE application.

    ``table`` is the new routing table (plain or compact), a
    :class:`~repro.core.table_delta.TableDelta` against the table the
    router currently holds, or None for an edge that carries no table
    (a side input of a rescaled tier). ``destinations`` is named only
    when the round changes the stream's fan-out width (a rescale): the
    new table addresses the new width, so destinations, table and the
    router's destination count must swap in one step — a (new table,
    old width) hybrid would route out of range.
    """

    table: object = None
    destinations: Optional[List[BaseExecutor]] = None


@dataclass
class RescaleSpec:
    """Scan-based migration directive for one instance of a rescaled
    operator.

    A rescale changes the hash-fallback modulus, so the manager cannot
    enumerate the keys that move by diffing tables (sketch statistics
    are lossy — state exists for keys no table mentions). Instead every
    participant scans its own state at apply time, groups keys by their
    new owner, and sends exactly one MIGRATE (possibly empty) to every
    other participant; ``expected_migrations`` is then a static
    ``len(participants) - 1`` regardless of where state actually sits.
    """

    #: the new routing table of the operator's table-routed input
    table: Optional[RoutingTable]
    #: hash seed of that input stream (``RoutedStream.hash_seed``)
    hash_seed: int
    #: destination instance count *after* the rescale
    num_instances: int
    #: all instances live during the round (union of old and new sets)
    participants: List[int]
    #: True when this instance is being removed by the rescale
    retiring: bool = False

    def owner_of(self, key: Hashable) -> int:
        """Post-rescale owner of ``key``, as the data plane will route
        it once the edge updates apply."""
        return key_owner(
            key, self.table, self.hash_seed, self.num_instances
        )[0]


@dataclass
class PoiReconfiguration:
    """The reconfiguration message payload for one POI (the structure
    listed in Section 3.4: router, send, receive)."""

    round_id: int
    #: out-stream name → what that edge adopts (the "router" entry)
    edge_updates: Dict[str, EdgeUpdate] = field(default_factory=dict)
    #: peer instance → keys of local state to ship there
    send: Dict[int, List[Hashable]] = field(default_factory=dict)
    #: keys whose state will arrive from peers (buffer their tuples)
    receive_keys: List[Hashable] = field(default_factory=list)
    #: how many MIGRATE messages to expect
    expected_migrations: int = 0
    #: scan-based migration directive (rescale rounds only)
    rescale: Optional[RescaleSpec] = None


@dataclass
class MigratePayload:
    round_id: int
    keys: List[Hashable]
    entries: Dict[Hashable, object]


class ReconfigurationAgent:
    """Per-POI protocol engine; installed as the executor's control
    handler."""

    def __init__(
        self,
        executor: BaseExecutor,
        manager,
        predecessors_needed: int,
        peers: List[BaseExecutor],
        successors: List[BaseExecutor],
    ) -> None:
        self.executor = executor
        self.manager = manager
        #: PROPAGATEs required before acting (1 for spouts: the manager)
        self.predecessors_needed = max(1, predecessors_needed)
        self.peers = peers
        self.successors = successors
        self._pending: Optional[PoiReconfiguration] = None
        #: distinct senders whose PROPAGATE arrived for the pending round
        self._propagated_from: Set[str] = set()
        self._migrations = 0
        #: (round_id, sender) of every MIGRATE already applied, so
        #: duplicated deliveries never install state twice
        self._seen_migrations: Set[Tuple[int, str]] = set()
        self._applied_round = -1
        #: absorbed protocol anomalies, by kind (telemetry)
        self.anomalies: Counter = Counter()
        executor.control_handler = self.handle

    # ------------------------------------------------------------------
    # Out-of-band entry points (called by the manager with RPC latency)
    # ------------------------------------------------------------------

    def on_get_metrics(self) -> Dict:
        """Steps 1-2: return and reset the collected statistics."""
        tracker = self.executor.instrumentation
        if tracker is None:
            return {}
        return tracker.collect_and_clear()

    def on_state_inventory(self) -> List[Hashable]:
        """Rescale pre-step: the keys currently materialized in this
        POI's state (insertion order — deterministic). The manager uses
        the inventory to compute hold lists for a rescale round, since
        table diffs cannot enumerate fallback-owned state."""
        operator = self.executor.operator
        if isinstance(operator, StatefulBolt):
            return list(operator.state)
        return []

    def on_reconf(self, payload: PoiReconfiguration) -> None:
        """Step 3: store the pending reconfiguration and start
        buffering tuples for keys whose state has not arrived yet.

        Idempotent: a duplicate SEND_RECONF for the pending round and a
        stale one for an older round are absorbed; a *newer* round
        supersedes a wedged pending one (the manager only starts a new
        round after completing or aborting the previous, so a leftover
        pending here is the residue of a lost/aborted round)."""
        if self._pending is not None:
            if payload.round_id == self._pending.round_id:
                self.anomalies["duplicate_reconf"] += 1
                return
            if payload.round_id < self._pending.round_id:
                self.anomalies["stale_reconf"] += 1
                return
            self.anomalies["superseded_reconf"] += 1
            self._discard_pending()
        self._pending = payload
        self._propagated_from = set()
        self._migrations = 0
        if payload.receive_keys:
            self.executor.hold_keys(payload.receive_keys)

    def on_abort(self, round_id: int) -> None:
        """The manager aborted ``round_id`` (deadline expired): discard
        the pending reconfiguration and release every held key back to
        normal routing — their buffered tuples replay against whatever
        state is locally present (hash-fallback semantics)."""
        if self._pending is None or self._pending.round_id != round_id:
            return
        self.anomalies["aborted"] += 1
        self._discard_pending()

    def _discard_pending(self) -> None:
        self._pending = None
        self._propagated_from = set()
        self._migrations = 0
        release_all = getattr(self.executor, "release_all_held", None)
        if release_all is not None:
            release_all()

    # ------------------------------------------------------------------
    # In-band control messages (PROPAGATE / MIGRATE)
    # ------------------------------------------------------------------

    def handle(self, msg: ControlMessage, executor: BaseExecutor) -> None:
        if msg.kind == PROPAGATE:
            self._on_propagate(msg.payload, msg.sender)
        elif msg.kind == MIGRATE:
            self._on_migrate(msg.payload, msg.sender)
        else:
            raise ReconfigurationError(
                f"{executor.name}: unexpected control message {msg.kind!r}"
            )

    def _on_propagate(self, round_id: int, sender: str) -> None:
        if self._pending is None or round_id != self._pending.round_id:
            # Late/duplicated PROPAGATE of an aborted, superseded or
            # already-finished round: absorb it (the barrier property
            # only matters while the round is live here).
            self.anomalies["stale_propagate"] += 1
            return
        if sender in self._propagated_from:
            self.anomalies["duplicate_propagate"] += 1
            return
        self._propagated_from.add(sender)
        if (
            len(self._propagated_from) >= self.predecessors_needed
            and self._applied_round != round_id
        ):
            self._apply()

    def _apply(self) -> None:
        """All predecessors reconfigured: swap tables, migrate state,
        propagate downstream (Algorithm 1's poi_migration tail)."""
        payload = self._pending
        executor = self.executor

        for stream_name, update in payload.edge_updates.items():
            edge = executor.out_edge(stream_name)
            table = update.table
            if isinstance(table, TableDelta):
                # Delta-encoded propagation (docs/PROTOCOL.md): resolve
                # against the table this router currently holds. A base
                # mismatch means the receiver is desynced — count it
                # and keep the old table; the manager's abort/resync
                # path pushes full snapshots.
                try:
                    table = table.apply(edge.router.table)
                except ReconfigurationError:
                    self.anomalies["delta_base_mismatch"] += 1
                    continue
            edge.adopt(table, update.destinations)

        # d-choices routers balance against accumulated send counts;
        # pre-round counts describe traffic under the old placement, so
        # they reset at the same barrier that swaps the tables.
        for edge in executor.out_edges:
            reset = getattr(edge.router, "reset_sent", None)
            if reset is not None:
                reset()

        for peer_instance, keys in payload.send.items():
            self._send_migrate(peer_instance, keys, payload.round_id)

        if payload.rescale is not None:
            self._rescale_migrate(payload.rescale, payload.round_id)

        for successor in self.successors:
            executor.send_control(
                successor,
                ControlMessage(PROPAGATE, payload.round_id, executor.name),
            )

        self._applied_round = payload.round_id
        # Propagation is reported before a possible completion so the
        # manager's PROPAGATE phase always closes before the round does.
        self.manager.notify_propagated(self, payload.round_id)
        if self._migrations >= payload.expected_migrations:
            self._finish_round()

    def _send_migrate(
        self, peer_instance: int, keys: List[Hashable], round_id: int
    ) -> None:
        executor = self.executor
        entries = executor.extract_state(keys)
        migrate = ControlMessage(
            MIGRATE,
            MigratePayload(round_id, list(keys), entries),
            sender=executor.name,
        )
        size = (
            executor.costs.control_message_bytes
            + executor.costs.state_bytes_per_key * len(keys)
        )
        if keys:
            executor.metrics.on_keys_migrated(len(keys))
        executor.send_control(self.peers[peer_instance], migrate, size)

    def _rescale_migrate(self, spec: RescaleSpec, round_id: int) -> None:
        """Scan local state, ship each key to its post-rescale owner.

        One MIGRATE goes to *every* other participant even when no keys
        move there — the receiver's ``expected_migrations`` counts
        participants, not planned transfers, so the round's completion
        condition is independent of where state happens to sit.
        """
        executor = self.executor
        groups: Dict[int, List[Hashable]] = {
            peer: []
            for peer in spec.participants
            if peer != executor.instance
        }
        operator = executor.operator
        if isinstance(operator, StatefulBolt):
            for key in list(operator.state):
                owner = spec.owner_of(key)
                if owner != executor.instance:
                    groups[owner].append(key)
        for peer_instance, keys in groups.items():
            self._send_migrate(peer_instance, keys, round_id)

    def _on_migrate(self, payload: MigratePayload, sender: str) -> None:
        token = (payload.round_id, sender)
        if token in self._seen_migrations:
            # Exact redelivery: installing twice would double counts.
            self.anomalies["duplicate_migrate"] += 1
            return
        self._seen_migrations.add(token)
        executor = self.executor
        executor.install_state(payload.entries)
        for key in payload.keys:
            executor.release_key(key)
        if self._pending is None or payload.round_id != self._pending.round_id:
            # State from an aborted/superseded round still gets
            # installed above (never destroy state), it just no longer
            # advances any round.
            self.anomalies["stale_migrate"] += 1
            return
        self._migrations += 1
        if (
            self._applied_round == payload.round_id
            and self._migrations >= self._pending.expected_migrations
        ):
            self._finish_round()

    def _finish_round(self) -> None:
        payload = self._pending
        self._pending = None
        self._propagated_from = set()
        self._migrations = 0
        self.manager.notify_complete(self, payload.round_id)

    # ------------------------------------------------------------------
    # Introspection (tests, experiments)
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._pending is not None
