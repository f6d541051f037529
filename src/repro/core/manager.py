"""The Manager: statistics collection, planning, and orchestration.

The manager runs alongside the application (Section 3.3). Periodically
(or on demand) it executes one reconfiguration *round*:

1. collect pair statistics from every instrumented POI;
2. build the bipartite key graph;
3. plan the round with :func:`repro.core.assignment.plan_reconfiguration`
   — partition, routing tables with their hybrid split sets, migration
   lists and the estimator's veto all come from that one call;
4. drive Algorithm 1 through the
   :class:`~repro.core.reconfiguration.ReconfigurationAgent` attached
   to every executor.

Manager↔POI RPCs are modeled with a fixed control-plane latency; the
in-band steps (PROPAGATE/MIGRATE) go through the data channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.assignment import (
    DEFAULT_IMBALANCE,
    HybridConfig,
    ReconfigurationPlan,
    RoutedStream,
    plan_reconfiguration,
)
from repro.core.instrumentation import PairTracker
from repro.core.keygraph import KeyGraph
from repro.core.reconfiguration import (
    ACK_RECONF,
    GET_METRICS,
    PROPAGATE,
    SEND_METRICS,
    SEND_RECONF,
    EdgeUpdate,
    PoiReconfiguration,
    ReconfigurationAgent,
)
from repro.core.rescale import Rescale, side_inputs
from repro.core.compact_table import (
    CompactRoutingTable,
    CompactTableConfig,
    plain_table_memory_bytes,
)
from repro.core.routing_table import RoutingTable
from repro.core.table_delta import TableDelta, snapshot_wire_bytes
from repro.engine.executor import ControlMessage, SpoutExecutor
from repro.engine.grouping import TableFieldsGrouping
from repro.engine.simulator import event_kind
from repro.engine.operators import StatefulBolt
from repro.errors import ReconfigurationError
from repro.observability.sink import NULL_SINK
from repro.observability.trace import Tracer
from repro.spacesaving import SpaceSaving

#: The phases of a round, in the order their spans open under the
#: round's span (``RESCALE_PROVISION`` on rescale rounds only). The
#: lifecycle block of docs/PROTOCOL.md is checked against this tuple.
PHASES = (
    "STATS_COLLECT",
    "RESCALE_PROVISION",
    "PARTITION",
    "PROPAGATE",
    "MIGRATE",
)


@dataclass
class ManagerConfig:
    """Tunables of the manager."""

    #: Reconfigure every this many simulated seconds; None = manual only.
    period_s: Optional[float] = None
    #: Balance constraint α passed to the partitioner.
    imbalance: float = DEFAULT_IMBALANCE
    #: SpaceSaving capacity per instrumented (in, out) stream pair.
    sketch_capacity: int = 4096
    #: Keep only this many heaviest pairs when partitioning (Fig. 12).
    max_edges: Optional[int] = None
    #: One-way latency of manager <-> POI control RPCs.
    rpc_latency_s: float = 1.0e-3
    #: Abort a round that has not completed within this many simulated
    #: seconds (lost/late control messages otherwise wedge the round
    #: forever); None disables the deadline.
    round_timeout_s: Optional[float] = None
    #: Seed for the partitioner.
    seed: int = 0
    #: Statistics collector factory (swap in ExactCounter for offline).
    sketch_factory: Callable[[int], object] = SpaceSaving
    #: Optional benefit estimator (core.estimator): when set, a planned
    #: reconfiguration is only deployed if its projected benefit covers
    #: the migration cost (the paper's future-work extension).
    estimator: Optional[object] = None
    #: Hybrid (hot-key splitting) routing; None keeps the paper's pure
    #: table routing and leaves planning byte-identical to it.
    hybrid: Optional[HybridConfig] = None
    #: Ship routing-table updates as :class:`TableDelta` diffs against
    #: the table the receivers already hold, with a full-snapshot
    #: fallback whenever the delta would not be smaller or the manager
    #: does not know the receiver's base (first push, post-abort).
    #: False ships full tables every round (docs/PROTOCOL.md).
    delta_propagation: bool = True
    #: Compact (fingerprint + front-filter) data-plane tables: the
    #: manager keeps planning on plain tables and compacts at the wire
    #: boundary. None ships plain tables (DESIGN.md §13).
    compact_tables: Optional[CompactTableConfig] = None


@dataclass
class RoundRecord:
    """Bookkeeping of one reconfiguration round (for tests/benches)."""

    round_id: int
    started_at: float
    completed_at: Optional[float] = None
    plan: Optional[ReconfigurationPlan] = None
    collected_pairs: int = 0
    skipped: bool = False
    #: set when an estimator vetoed deployment ("not worthwhile")
    vetoed: bool = False
    #: set when the round deadline expired before completion
    aborted: bool = False
    aborted_at: Optional[float] = None
    abort_reason: str = ""
    #: the key graph this round partitioned (None for skipped rounds);
    #: kept so invariant checkers can audit the balance constraint
    keygraph: Optional[object] = field(default=None, repr=False)
    #: set on rescale rounds: tier parallelism before / requested after
    rescale_from: Optional[int] = None
    rescale_to: Optional[int] = None
    #: instances spawned / retired when the rescale committed
    rescale_spawned: int = 0
    rescale_retired: int = 0
    #: aborted scale-out fully rolled back (doomed instances drained,
    #: state evacuated, instance set restored)
    rescale_rolled_back: bool = False
    #: dst op → {key: member count} for keys split when the round
    #: started (invariant checkers allow that many extract/install
    #: events per key during a consolidation)
    presplit_keys: Dict[str, Dict] = field(default_factory=dict, repr=False)
    #: dst op → {key: members} chosen by hybrid planning this round
    split_sets: Dict[str, Dict] = field(default_factory=dict, repr=False)
    #: tuples the spouts had produced when the round's first PROPAGATE
    #: was applied (a spout's swap): where a batch backend replays it
    swapped_at_tuples: Optional[int] = None

    @property
    def is_rescale(self) -> bool:
        return self.rescale_to is not None

    @property
    def duration_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class Manager:
    """Coordinator of locality-aware routing for one deployment."""

    def __init__(self, deployment, config: Optional[ManagerConfig] = None):
        self.deployment = deployment
        deployment.manager = self
        self.config = config or ManagerConfig()
        self.sim = deployment.sim
        self.rounds: List[RoundRecord] = []
        self.current_tables: Dict[str, RoutingTable] = {}
        self._agents: Dict[Tuple[str, int], ReconfigurationAgent] = {}
        self._instrumented: List = []
        self._routed_streams: List[RoutedStream] = []
        self._round_active = False
        self._round_id = 0
        self._collect_outstanding = 0
        self._ack_outstanding = 0
        self._complete_outstanding = 0
        self._stats: Dict = {}
        self._on_round_complete: Optional[Callable] = None
        self._stopped = False
        self._timer = None
        self._deadline = None
        self._tables_before_round: Dict[str, RoutingTable] = {}
        self._streams_by_name: Dict[str, RoutedStream] = {}
        #: late RPC/completion callbacks ignored because their round
        #: was aborted or superseded (telemetry)
        self.stale_callbacks = 0
        #: observers called with the RoundRecord every time a round
        #: finishes (completed, aborted, skipped or vetoed) — the seam
        #: repro.testing's invariant checkers hook
        self.round_observers: List[Callable[[RoundRecord], None]] = []
        #: tracer for per-round span trees; a no-op until
        #: :meth:`set_telemetry` swaps in a real sink
        self._tracer = Tracer(lambda: self.sim.now, NULL_SINK)
        #: live spans of the in-flight round, by phase name
        self._round_spans: Dict[str, object] = {}
        self._propagated_outstanding = 0
        #: the rescale of the in-flight rescale round, kept after an
        #: aborted scale-out until its rollback has drained (DESIGN §11)
        self._rescale: Optional[Rescale] = None
        self._install()
        registry = self.deployment.metrics.registry
        registry.register_callback(
            "reconf_rounds_completed", lambda: len(self.completed_rounds)
        )
        registry.register_callback(
            "reconf_rounds_aborted", lambda: len(self.aborted_rounds)
        )
        registry.register_callback(
            "reconf_stale_callbacks", lambda: self.stale_callbacks
        )
        if self.config.compact_tables is not None:
            registry.gauge("compact_false_route_budget").set(
                self.config.compact_tables.false_route_budget
            )
            registry.register_callback(
                "compact_filter_rejects",
                lambda: self._sum_compact_counter("filter_rejects"),
            )
            registry.register_callback(
                "compact_filter_false_positives",
                lambda: self._sum_compact_counter("filter_false_positives"),
            )
            registry.register_callback(
                "compact_table_lookups",
                lambda: self._sum_compact_counter("lookups"),
            )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _install(self) -> None:
        topology = self.deployment.topology
        routed = [
            stream
            for stream in topology.streams
            if isinstance(stream.grouping, TableFieldsGrouping)
        ]
        if not routed:
            raise ReconfigurationError(
                "no TableFieldsGrouping streams to manage; use "
                "TableFieldsGrouping on the fields-grouped streams"
            )
        for stream in routed:
            instances = self.deployment.instances(stream.dst)
            stateful = all(
                isinstance(e.operator, StatefulBolt) for e in instances
            )
            self._routed_streams.append(
                RoutedStream(
                    name=stream.name,
                    src_op=stream.src,
                    dst_op=stream.dst,
                    dst_placements=self.deployment.placement_of(stream.dst),
                    stateful_dst=stateful,
                )
            )
        self._streams_by_name = {s.name: s for s in self._routed_streams}
        # A stateful operator's keys live in exactly one namespace, so
        # it must have at most one table-routed input stream.
        routed_inputs: Dict[str, int] = {}
        for stream in routed:
            routed_inputs[stream.dst] = routed_inputs.get(stream.dst, 0) + 1
        for op, count in routed_inputs.items():
            if count > 1:
                raise ReconfigurationError(
                    f"operator {op!r} has {count} table-routed inputs; "
                    f"at most one is supported"
                )

        # Instrument operators observing key pairs: keyed input and a
        # table-routed output.
        for op in topology.operators.values():
            has_keyed_input = any(
                getattr(s.grouping, "key_fn", None) is not None
                for s in topology.inputs_of(op.name)
            )
            has_routed_output = any(
                s.name in self._streams_by_name
                for s in topology.outputs_of(op.name)
            )
            if has_keyed_input and has_routed_output:
                for executor in self.deployment.instances(op.name):
                    self._instrument(executor)
        if not self._instrumented:
            raise ReconfigurationError(
                "no operator observes key pairs (needs a keyed input "
                "and a table-routed output)"
            )
        self._repatch_agents()

    def _instrument(self, executor) -> None:
        """Attach a pair-statistics tracker to ``executor``."""
        executor.instrumentation = PairTracker(
            executor.op_name,
            capacity=self.config.sketch_capacity,
            sketch_factory=self.config.sketch_factory,
        )
        self._instrumented.append(executor)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def set_telemetry(self, telemetry) -> None:
        """Adopt a :class:`~repro.observability.Telemetry`: rounds emit
        their span tree (one span per phase of :data:`PHASES`, closed
        by a COMMIT/ABORT/SKIP/VETO event) into its sink. Usually
        called through :func:`repro.observability.attach_telemetry`."""
        self._tracer = telemetry.tracer

    def start(self) -> None:
        """Arm periodic reconfiguration (config.period_s).

        Idempotent: calling start() on a running manager re-arms the
        single periodic timer instead of stacking a second one. The
        timer is a *daemon* event: it fires while the application has
        work left and never keeps a drain run alive on its own.
        """
        if self.config.period_s is None:
            raise ReconfigurationError(
                "ManagerConfig.period_s is None; call reconfigure() manually"
            )
        self._stopped = False
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.schedule(
            self.config.period_s, self._periodic_tick, daemon=True
        )

    def stop(self) -> None:
        """Disarm periodic reconfiguration (in-flight rounds finish)."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def reconfigure(self, on_complete: Optional[Callable] = None) -> bool:
        """Begin one asynchronous reconfiguration round.

        Returns False (and does nothing) when a round is already in
        flight or an aborted scale-out is still rolling back.
        ``on_complete(record)`` fires when the round finishes.
        """
        return self._begin_round(on_complete, None)

    def rescale(
        self, new_parallelism: int, on_complete: Optional[Callable] = None
    ) -> bool:
        """Begin an elastic rescale round: resize every stateful routed
        destination tier to ``new_parallelism`` instances, spawning or
        retiring executors and migrating state through Algorithm 1
        (:mod:`repro.core.rescale`).

        Returns False when a round is already in flight, a rollback is
        still draining, or the tier already has that parallelism.
        """
        if new_parallelism < 1:
            raise ReconfigurationError(
                f"parallelism must be >= 1, got {new_parallelism}"
            )
        if new_parallelism == self.tier_parallelism:
            return False
        return self._begin_round(on_complete, Rescale(self, new_parallelism))

    def _begin_round(self, on_complete, rescale: Optional[Rescale]) -> bool:
        if self._round_active or self._rescale is not None:
            return False
        self._round_active = True
        self._rescale = rescale
        self._round_id += 1
        round_id = self._round_id
        self._on_round_complete = on_complete
        record = RoundRecord(round_id, started_at=self.sim.now)
        self.rounds.append(record)
        self._round_spans = {
            "round": self._tracer.begin(
                "reconfiguration_round", round=round_id
            )
        }
        self._begin_phase("STATS_COLLECT", pois=len(self._instrumented))
        self._stats = {}
        self._tables_before_round = dict(self.current_tables)
        for stream in self._routed_streams:
            table = self._tables_before_round.get(stream.name)
            if table is not None and table.num_split_keys:
                record.presplit_keys[stream.dst_op] = {
                    key: len(members)
                    for key, members in table.splits.items()
                }
        self._collect_outstanding = len(self._instrumented)
        if self.config.round_timeout_s is not None:
            self._deadline = self.sim.schedule(
                self.config.round_timeout_s, self._on_round_deadline, round_id
            )
        latency = self.config.rpc_latency_s
        for executor in self._instrumented:  # step 1: GET_METRICS
            self.sim.schedule(latency, self._rpc_get_metrics, executor, round_id)
        if rescale is not None:
            # Rescale rounds add an inventory leg (table diffs cannot
            # say where a key lives — the fallback modulus changes).
            record.rescale_from = rescale.old_k
            record.rescale_to = rescale.new_k
            rescale.collect_inventory(round_id)
        return True

    @property
    def round_active(self) -> bool:
        return self._round_active

    @property
    def rescale_in_progress(self) -> bool:
        """A rescale round is live, or an aborted scale-out is still
        rolling back its doomed instances."""
        return self._rescale is not None

    @property
    def tier_parallelism(self) -> int:
        """Current instance count of the rescaled tier. All stateful
        routed destinations rescale together (one-instance-per-server
        placement couples their parallelism to the server count)."""
        sizes = {
            len(self.deployment.executors[s.dst_op])
            for s in self._routed_streams
        }
        if len(sizes) != 1:
            raise ReconfigurationError(
                f"routed destination tiers have mixed parallelism "
                f"{sorted(sizes)}; cannot rescale"
            )
        return sizes.pop()

    @property
    def completed_rounds(self) -> List[RoundRecord]:
        return [r for r in self.rounds if r.completed_at is not None]

    @property
    def aborted_rounds(self) -> List[RoundRecord]:
        return [r for r in self.rounds if r.aborted]

    @property
    def agents(self) -> Dict[Tuple[str, int], ReconfigurationAgent]:
        """The installed per-POI protocol agents, by (op, instance)."""
        return dict(self._agents)

    @property
    def routed_streams(self) -> List[RoutedStream]:
        """The table-routed streams under management."""
        return list(self._routed_streams)

    # ------------------------------------------------------------------
    # Round internals
    # ------------------------------------------------------------------

    @event_kind("ROUND_TIMER")
    def _periodic_tick(self) -> None:
        if self._stopped:
            return
        self.reconfigure()
        self._timer = self.sim.schedule(
            self.config.period_s, self._periodic_tick, daemon=True
        )

    def _begin_phase(self, name: str, **attrs):
        """Open the span of phase ``name`` (one of :data:`PHASES`)
        under the round's span."""
        span = self._round_spans[name] = self._tracer.begin(
            name, parent=self._round_spans.get("round"), **attrs
        )
        return span

    def _is_current(self, round_id: int) -> bool:
        """Is ``round_id`` the round currently in flight? Late
        callbacks from aborted rounds fail this and are dropped."""
        if self._round_active and round_id == self._round_id:
            return True
        self.stale_callbacks += 1
        return False

    @event_kind(GET_METRICS)
    def _rpc_get_metrics(self, executor, round_id: int) -> None:
        if not self._is_current(round_id):
            return
        agent = self._agents[(executor.op_name, executor.instance)]
        stats = agent.on_get_metrics()  # step 2: SEND_METRICS
        self.sim.schedule(
            self.config.rpc_latency_s, self._on_metrics, stats, round_id
        )

    @event_kind(SEND_METRICS)
    def _on_metrics(self, stats: Dict, round_id: int) -> None:
        if not self._is_current(round_id):
            return
        for edge_pair, estimates in stats.items():
            self._stats.setdefault(edge_pair, []).extend(estimates)
        self._collect_outstanding -= 1
        self._maybe_plan()

    def _maybe_plan(self) -> None:
        """Plan once both the metrics and (for rescale rounds) the
        inventory legs have fully returned."""
        rescale = self._rescale
        if self._collect_outstanding == 0 and (
            rescale is None or rescale.inventory_outstanding == 0
        ):
            self._plan_and_send()

    def _plan_and_send(self) -> None:
        record = self.rounds[-1]
        keygraph = KeyGraph.from_stats(self._stats)
        record.collected_pairs = keygraph.num_edges
        record.keygraph = keygraph
        self._round_spans["STATS_COLLECT"].end(pairs=keygraph.num_edges)
        if self._rescale is not None:
            # A rescale never skips: even with an empty key graph the
            # instance set must change (tables then come out empty and
            # all routing is hash-fallback at the new width).
            self._rescale.plan(record, keygraph)
            return
        if keygraph.num_edges == 0:
            # Nothing observed yet: skip this round.
            record.skipped = True
            self._complete_round(record)
            return

        plan = self._partition(
            record, keygraph, self._routed_streams, self._partition_size()
        )
        if plan.vetoed:
            self._complete_round(record)
            return
        self.current_tables.update(plan.tables)
        self._send_reconfigurations(plan)

    def _partition(
        self, record: RoundRecord, keygraph, streams, num_servers: int
    ) -> ReconfigurationPlan:
        """The PARTITION phase of a round: plan ``streams`` over
        ``num_servers`` under its span, note the plan's decisions on
        ``record`` and publish the two ``reconf_last_*`` gauges.

        Plain rounds plan with the hybrid config and the estimator:
        hybrid mode re-derives each stream's split set from scratch
        every plain round, so a key that cooled below the threshold
        consolidates (its partials gather on the table owner via
        :func:`~repro.core.assignment.plan_migrations`) and a newly hot
        key starts splitting without migrating anything. Rescale rounds
        plan with neither."""
        partition_span = self._begin_phase(
            "PARTITION", edges=keygraph.num_edges, servers=num_servers
        )
        plain = not record.is_rescale
        plan = plan_reconfiguration(
            keygraph,
            streams,
            num_servers,
            self.current_tables,
            imbalance=self.config.imbalance,
            seed=self.config.seed + self._round_id,
            max_edges=self.config.max_edges,
            hybrid=self.config.hybrid if plain else None,
            estimator=self.config.estimator if plain else None,
        )
        record.plan = plan
        record.split_sets = plan.split_sets
        record.vetoed = plan.vetoed
        moved = {}
        if plain:  # a rescale clears its migrations (Rescale.plan)
            moved["moved_keys"] = plan.total_moved_keys()
        cut_weight = (
            1.0 - plan.predicted_locality
        ) * keygraph.total_pair_weight
        registry = self.deployment.metrics.registry
        registry.gauge("reconf_last_cut_weight").set(cut_weight)
        registry.gauge("reconf_last_predicted_locality").set(
            plan.predicted_locality
        )
        partition_span.end(
            predicted_locality=plan.predicted_locality,
            cut_weight=cut_weight,
            **moved,
            tables=len(plan.tables),
        )
        return plan

    def _partition_size(self) -> int:
        servers = set()
        for stream in self._routed_streams:
            servers.update(stream.dst_placements)
        expected = set(range(len(servers)))
        if servers != expected:
            raise ReconfigurationError(
                f"routed destinations occupy servers {sorted(servers)}; "
                f"expected contiguous 0..{len(servers) - 1}"
            )
        return len(servers)

    def _send_reconfigurations(self, plan: ReconfigurationPlan) -> None:
        payloads = self._build_payloads(plan)
        self._ack_outstanding = len(payloads)
        self._complete_outstanding = len(payloads)
        self._propagated_outstanding = len(payloads)
        self._begin_phase("PROPAGATE", pois=len(payloads))
        latency = self.config.rpc_latency_s
        for (op, instance), payload in payloads.items():  # step 3
            agent = self._agents[(op, instance)]
            self.sim.schedule(latency, self._rpc_send_reconf, agent, payload)

    @event_kind(SEND_RECONF)
    def _rpc_send_reconf(self, agent, payload) -> None:
        if not self._is_current(payload.round_id):
            return
        agent.on_reconf(payload)
        self.sim.schedule(  # step 4
            self.config.rpc_latency_s, self._on_ack, payload.round_id
        )

    @event_kind(ACK_RECONF)
    def _on_ack(self, round_id: int) -> None:
        if not self._is_current(round_id):
            return
        self._ack_outstanding -= 1
        if self._ack_outstanding == 0:
            self._start_propagation()

    def _start_propagation(self) -> None:
        """Step 5: PROPAGATE to the DAG roots (the spouts)."""
        latency = self.config.rpc_latency_s
        for executor in self.deployment.all_executors():
            if isinstance(executor, SpoutExecutor):
                message = ControlMessage(
                    PROPAGATE, self._round_id, sender="manager"
                )
                self.sim.schedule(
                    latency, executor.deliver_control, message
                )

    def _build_payloads(
        self, plan: ReconfigurationPlan
    ) -> Dict[Tuple[str, int], PoiReconfiguration]:
        """One :class:`PoiReconfiguration` per executor — every POI
        participates in propagation, even with nothing to swap or move.

        An :class:`EdgeUpdate` goes to the *source* executors of each
        routed stream, resolved through the deployment metadata (a
        stream's name is a label, not an address). On a plain round it
        carries the encoded table and migration lists go to the
        stateful destinations. On a rescale round (union view) it also
        names the new destination list, swapped atomically with the
        table at PROPAGATE application (``update_table`` alone cannot
        change fan-out), the side inputs of the tier get a table-less
        one, and state moves by scan (:mod:`repro.core.rescale`).
        """
        deployment = self.deployment
        rescale = self._rescale
        payloads = {
            (executor.op_name, executor.instance): PoiReconfiguration(
                round_id=self._round_id
            )
            for executor in deployment.all_executors()
        }
        streams = (
            self._streams_by_name
            if rescale is None
            else {s.name: s for s in rescale.new_streams}
        )
        for stream_name, table in plan.tables.items():
            stream = streams.get(stream_name)
            if stream is None:
                raise ReconfigurationError(
                    f"plan contains table for unmanaged stream "
                    f"{stream_name!r}"
                )
            sources = deployment.instances(stream.src_op)
            if rescale is None:
                update = EdgeUpdate(
                    self._encode_table_update(
                        stream_name, table, copies=len(sources)
                    )
                )
            else:
                update = rescale.edge_update(payloads, stream, table)
            for executor in sources:
                payloads[(stream.src_op, executor.instance)].edge_updates[
                    stream_name
                ] = update

        if rescale is not None:
            rescale.widen_side_inputs(payloads)

        # Migration lists go to the stateful destination executors
        # (none on a rescale round: its state moves by scan).
        for op_name, per_pair in plan.migrations.items():
            for (old_instance, new_instance), keys in per_pair.items():
                sender = payloads[(op_name, old_instance)]
                sender.send.setdefault(new_instance, []).extend(keys)
                receiver = payloads[(op_name, new_instance)]
                receiver.receive_keys.extend(keys)
                receiver.expected_migrations += 1
        return payloads

    def _compact_router_tables(self):
        """Live compact tables held by source routers (metrics)."""
        for stream in self._routed_streams:
            for executor in self.deployment.instances(stream.src_op):
                table = executor.table_router(stream.name).table
                if isinstance(table, CompactRoutingTable):
                    yield table

    def _sum_compact_counter(self, attr: str) -> int:
        return sum(
            getattr(table, attr) for table in self._compact_router_tables()
        )

    def wire_table(self, table: Optional[RoutingTable]):
        """The representation routers should hold: the plain table, or
        its compacted twin when compact tables are configured. Planning
        stays on plain tables either way (DESIGN.md §13)."""
        if table is None or self.config.compact_tables is None:
            return table
        return CompactRoutingTable.from_table(
            table, self.config.compact_tables
        )

    def _encode_table_update(
        self, stream_name: str, table: RoutingTable, copies: int = 1
    ):
        """The table an :class:`EdgeUpdate` ships for one routed
        stream: a :class:`TableDelta` against the base the receivers
        hold (``_tables_before_round``), or a full table when deltas
        are off or no shared base exists. Feeds the
        ``propagate_bytes_*`` counters and the per-stream memory
        gauges; ``copies`` is the number of receivers the payload fans
        out to."""
        wire_table = self.wire_table(table)
        full_bytes = snapshot_wire_bytes(wire_table)
        base = self._tables_before_round.get(stream_name)
        if self.config.delta_propagation and base is not None:
            update = TableDelta.diff(base, table, snapshot_table=wire_table)
            shipped_bytes = update.wire_bytes()
        else:
            update = wire_table
            shipped_bytes = full_bytes
        registry = self.deployment.metrics.registry
        registry.counter("propagate_bytes_sent", stream=stream_name).inc(
            shipped_bytes * copies
        )
        registry.counter("propagate_bytes_saved", stream=stream_name).inc(
            max(0, full_bytes - shipped_bytes) * copies
        )
        if isinstance(wire_table, CompactRoutingTable):
            table_bytes = wire_table.table_bytes()
            filter_bytes = wire_table.filter_bytes()
            registry.gauge(
                "compact_expected_false_route_rate", stream=stream_name
            ).set(wire_table.expected_false_route_rate())
        else:
            table_bytes = plain_table_memory_bytes(table)
            filter_bytes = 0
        registry.gauge("routing_table_bytes", stream=stream_name).set(
            table_bytes
        )
        registry.gauge("routing_filter_bytes", stream=stream_name).set(
            filter_bytes
        )
        return update

    def _repatch_agents(self) -> None:
        """Derive every agent's predecessor count, peer list and
        successor list from the *live* deployment — the topology's at
        install, the union view while a rescale round runs, the final
        view after commit or rollback. Existing agents keep their
        protocol state; executors without an agent (all at install,
        later the just spawned) get one, which also installs their
        control handler."""
        deployment = self.deployment
        topology = deployment.topology
        for op in topology.operators.values():
            live = deployment.instances(op.name)
            predecessors = sum(
                len(deployment.executors[stream.src])
                for stream in topology.inputs_of(op.name)
            )
            successors: List = []
            for stream in topology.outputs_of(op.name):
                successors.extend(deployment.instances(stream.dst))
            for executor in live:
                needed = (
                    1
                    if isinstance(executor, SpoutExecutor)
                    else max(1, predecessors)
                )
                agent = self._agents.get((op.name, executor.instance))
                if agent is None:
                    agent = ReconfigurationAgent(
                        executor, self, needed, live, successors
                    )
                    self._agents[(op.name, executor.instance)] = agent
                else:
                    agent.predecessors_needed = needed
                    agent.peers = live
                    agent.successors = successors

    # ------------------------------------------------------------------
    # Round completion, deadline and abort
    # ------------------------------------------------------------------

    def _complete_round(self, record: RoundRecord) -> None:
        if self._rescale is not None:
            self._rescale.commit(record)
            self._rescale = None
        record.completed_at = self.sim.now
        self._finish_round(record)

    def _finish_round(self, record: RoundRecord) -> None:
        self._end_round_trace(record)
        self._round_active = False
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        for observer in self.round_observers:
            observer(record)
        if self._on_round_complete is not None:
            callback, self._on_round_complete = self._on_round_complete, None
            callback(record)

    def _end_round_trace(self, record: RoundRecord) -> None:
        """Close the round's span tree with its terminal event. Spans
        already ended on the happy path ignore the extra end()."""
        spans, self._round_spans = self._round_spans, {}
        round_span = spans.get("round")
        if round_span is None:
            return
        if record.aborted:
            status, event = "aborted", "ABORT"
        elif record.vetoed:
            status, event = "vetoed", "VETO"
        elif record.skipped:
            status, event = "skipped", "SKIP"
        else:
            status, event = "committed", "COMMIT"
        for phase in PHASES:
            span = spans.get(phase)
            if span is not None:
                span.end(status=status)
        attrs = {"status": status}
        if record.abort_reason:
            attrs["reason"] = record.abort_reason
        if record.is_rescale:
            attrs["rescale"] = (
                f"{record.rescale_from}->{record.rescale_to}"
            )
        round_span.event(event, **attrs)
        round_span.end(
            status=status, collected_pairs=record.collected_pairs
        )

    @event_kind("ROUND_DEADLINE")
    def _on_round_deadline(self, round_id: int) -> None:
        if not self._round_active or round_id != self._round_id:
            return
        self._abort_round(
            f"deadline of {self.config.round_timeout_s}s expired"
        )

    def _abort_round(self, reason: str) -> None:
        """Abort the in-flight round: discard pending reconfigurations,
        release held keys, and roll routing back to the pre-round
        tables so every not-yet-migrated key keeps its previous (or
        hash-fallback) owner. State already migrated stays where it
        landed — hash fallback plus state merging keeps per-key totals
        exact; only locality is temporarily suboptimal."""
        record = self.rounds[-1]
        record.aborted = True
        record.aborted_at = self.sim.now
        record.abort_reason = reason
        self.current_tables = dict(self._tables_before_round)
        rescale, self._rescale = self._rescale, None
        provisioned = rescale is not None and rescale.new_streams is not None
        self._push_tables(rescale.old_k if provisioned else None)
        for agent in self._agents.values():
            agent.on_abort(record.round_id)
        self.deployment.metrics.on_round_aborted()
        if provisioned:
            rescale.roll_back(record)
        self._finish_round(record)

    def _push_tables(self, width: Optional[int] = None) -> None:
        """Force every source router onto ``current_tables``
        out-of-band (abort path: the in-band protocol is presumed
        wedged). Always a full table — never a delta — so it doubles as
        the base resync for delta-encoded propagation
        (docs/PROTOCOL.md).

        Given the pre-round ``width`` (an aborted rescale), every
        out-edge into the tier, side inputs included, also goes back to
        it, table and width in one atomic step: a source that already
        applied the new edge would otherwise keep routing to doomed
        instances. Spawned sources are included — they may still hold
        in-flight tuples to process during the drain and must route
        like everyone else."""
        deployment = self.deployment
        for stream in self._routed_streams:  # pre-rescale view
            table = self.wire_table(self.current_tables.get(stream.name))
            destinations = (
                None
                if width is None
                else deployment.executors[stream.dst_op][:width]
            )
            for executor in deployment.instances(stream.src_op):
                executor.out_edge(stream.name).adopt(table, destinations)
        if width is not None:
            for executor, name, destinations in side_inputs(self, width):
                executor.out_edge(name).adopt(None, destinations)

    # ------------------------------------------------------------------
    # Agent notifications
    # ------------------------------------------------------------------

    def notify_propagated(self, agent, round_id: int) -> None:
        """A POI swapped tables and forwarded PROPAGATE. The first one
        of a round notes the spouts' tuple offset on its record; when
        the last one reports, the PROPAGATE span closes and the MIGRATE
        span opens (zero-length when no state moves)."""
        if not self._round_active or round_id != self._round_id:
            return
        record = self.rounds[-1]
        if record.swapped_at_tuples is None:  # the spouts apply first
            record.swapped_at_tuples = self.deployment.tuples_emitted()
        self._propagated_outstanding -= 1
        if self._propagated_outstanding == 0:
            self._round_spans["PROPAGATE"].end(status="propagated")
            self._begin_phase(
                "MIGRATE", pending_pois=self._complete_outstanding
            )

    def notify_complete(self, agent, round_id: int) -> None:
        """A POI finished the round (propagated + all state received).
        Completions of aborted/superseded rounds are dropped."""
        if not self._is_current(round_id):
            return
        self._complete_outstanding -= 1
        if self._complete_outstanding == 0:
            self._complete_round(self.rounds[-1])
