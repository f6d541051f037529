"""Elastic rescaling: a round that changes the width of the routed tier.

A rescale round is a :class:`~repro.core.manager.Manager` round that
also resizes every routed destination operator (DESIGN.md §11).
:class:`Rescale` is what it adds, from the request to the commit — or,
when a scale-out aborts, to the end of its rollback: an inventory leg
beside GET_METRICS (a width change moves the hash fallback, so table
diffs cannot say where a key lives), provisioning, edge updates that
name the new destinations, state that moves by scan
(:class:`~repro.core.reconfiguration.RescaleSpec`), and the commit or
the drain-and-evacuate rollback.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.assignment import RoutedStream
from repro.core.reconfiguration import EdgeUpdate, RescaleSpec
from repro.engine.grouping import key_owner
from repro.engine.operators import StatefulBolt
from repro.engine.simulator import event_kind

#: Poll interval of the scale-out rollback drain watcher: after an
#: aborted scale-out, doomed instances are evacuated only once their
#: queues stay quiet for two consecutive polls.
_DRAIN_POLL_S = 2.0e-3


def tier_ops(manager) -> List[str]:
    """All routed destination ops, topological order — every one of
    them gains/loses instances in a rescale (one-instance-per-server
    placement keeps their parallelism equal)."""
    routed = {s.dst_op for s in manager._routed_streams}
    order = manager.deployment.topology.topological_order()
    return [name for name in order if name in routed]


def side_inputs(manager, width: int):
    """``(source executor, stream name, destinations)`` of every
    non-table-routed stream into a rescaled op (shuffle, plain hash,
    PKG side inputs) at ``width``: they change fan-out too."""
    deployment = manager.deployment
    for op_name in tier_ops(manager):
        destinations = deployment.executors[op_name][:width]
        for stream in deployment.topology.inputs_of(op_name):
            if stream.name in manager._streams_by_name:
                continue
            for executor in deployment.instances(stream.src):
                yield executor, stream.name, list(destinations)


class Rescale:
    """One rescale of the manager's routed tier to ``new_k`` instances."""

    def __init__(self, manager, new_k: int) -> None:
        self.manager = manager
        self.deployment = manager.deployment
        self.sim = manager.sim
        self.old_k = manager.tier_parallelism
        self.new_k = new_k
        #: rescaled operators, topological order
        self.ops = tier_ops(manager)
        #: op → {key → holder instance}, gathered by the inventory leg
        self.inventory: Dict[str, Dict] = {}
        self.inventory_outstanding = 0
        #: executors created for this rescale (empty on scale-in)
        self.spawned: List = []
        #: post-rescale routed-stream view (set at provisioning)
        self.new_streams: Optional[List[RoutedStream]] = None

    # ------------------------------------------------------------------
    # Inventory leg
    # ------------------------------------------------------------------

    def collect_inventory(self, round_id: int) -> None:
        """Ask every stateful instance of the tier which keys it holds,
        so the plan can derive hold lists."""
        routed = self.manager._routed_streams
        stateful = {s.dst_op for s in routed if s.stateful_dst}
        targets = [
            executor
            for op_name in self.ops
            if op_name in stateful
            for executor in self.deployment.instances(op_name)
        ]
        self.inventory_outstanding = len(targets)
        latency = self.manager.config.rpc_latency_s
        for executor in targets:
            self.sim.schedule(
                latency, self._rpc_get_inventory, executor, round_id
            )

    @event_kind("GET_INVENTORY")
    def _rpc_get_inventory(self, executor, round_id: int) -> None:
        manager = self.manager
        if not manager._is_current(round_id):
            return
        agent = manager._agents[(executor.op_name, executor.instance)]
        self.sim.schedule(
            manager.config.rpc_latency_s,
            self._on_inventory,
            executor.op_name,
            executor.instance,
            agent.on_state_inventory(),
            round_id,
        )

    @event_kind("SEND_INVENTORY")
    def _on_inventory(
        self, op_name: str, instance: int, keys: List, round_id: int
    ) -> None:
        if not self.manager._is_current(round_id):
            return
        holders = self.inventory.setdefault(op_name, {})
        for key in keys:
            holders[key] = instance
        self.inventory_outstanding -= 1
        self.manager._maybe_plan()

    # ------------------------------------------------------------------
    # Provision, plan and payloads
    # ------------------------------------------------------------------

    def plan(self, record, keygraph) -> None:
        """Provision the new instance set, then repartition the key
        graph for ``new_k`` (the manager's PARTITION phase, without
        hybrid splits or an estimator) and send payloads.

        Provisioning happens *before* payloads go out so that the whole
        round runs against the union view: spawned instances forward
        PROPAGATEs (their successors count them as predecessors) and
        retiring instances keep participating until commit.
        """
        manager, deployment = self.manager, self.deployment
        old_k, new_k = self.old_k, self.new_k
        provision_span = manager._begin_phase(
            "RESCALE_PROVISION",
            old_parallelism=old_k,
            new_parallelism=new_k,
            ops=len(self.ops),
        )
        cluster = deployment.cluster
        while cluster.num_servers < new_k:
            cluster.add_server()
        for op_name in self.ops:
            # notify=False: the agent (control handler) must be
            # installed before spawn observers wrap the seams.
            self.spawned.extend(
                deployment.spawn_instance(
                    op_name, cluster.server(instance), notify=False
                )
                for instance in range(old_k, new_k)
            )
        instrumented = {e.op_name for e in manager._instrumented}
        manager._repatch_agents()
        for executor in self.spawned:
            if executor.op_name in instrumented:
                manager._instrument(executor)
            deployment.notify_spawned(executor)
        retiring = max(0, old_k - new_k) * len(self.ops)
        provision_span.end(spawned=len(self.spawned), retiring=retiring)

        self.new_streams = [
            replace(
                s,
                dst_placements=[
                    e.server.index
                    for e in deployment.executors[s.dst_op][:new_k]
                ],
            )
            for s in manager._routed_streams
        ]
        plan = manager._partition(record, keygraph, self.new_streams, new_k)
        # The plan's table-diff migrations compare owners across two
        # different fallback moduli — meaningless for a rescale. State
        # movement is scan-based instead (see RescaleSpec).
        plan.migrations = {}
        manager.current_tables.update(plan.tables)
        manager._send_reconfigurations(plan)

    def edge_update(self, payloads, stream, table) -> EdgeUpdate:
        """What the sources of ``stream`` adopt: its new table and its
        destinations at ``new_k``. One wire representation per stream,
        shared by the edge update and every :class:`RescaleSpec`, so
        scan-migration owner decisions agree exactly with data-plane
        routing even within the compact false-route budget."""
        wire_table = self.manager.wire_table(table)
        if stream.stateful_dst:
            self._plan_scan_migration(payloads, stream, wire_table)
        destinations = self.deployment.executors[stream.dst_op]
        return EdgeUpdate(wire_table, destinations[: self.new_k])

    def widen_side_inputs(self, payloads) -> None:
        """A table-less edge update for every side input of the tier:
        without one, their sources keep the old destination list —
        stale references to retired executors — and the old modulus."""
        for executor, name, dsts in side_inputs(self.manager, self.new_k):
            payload = payloads[(executor.op_name, executor.instance)]
            payload.edge_updates[name] = EdgeUpdate(None, dsts)

    def _plan_scan_migration(self, payloads, stream, wire_table) -> None:
        """Every instance of a stateful rescaled tier gets a
        :class:`RescaleSpec`: at apply time it scans its own state and
        ships each key whose owner changed, with exactly one MIGRATE
        (possibly empty) to every other participant, so
        ``expected_migrations`` is static — sketch-fed tables are lossy
        and the fallback modulus changes, so no table diff can
        enumerate the moving keys. Hold lists come from the inventory.
        """
        # every instance live during the round, old and new
        participants = list(range(max(self.old_k, self.new_k)))
        for executor in self.deployment.instances(stream.dst_op):
            payload = payloads[(stream.dst_op, executor.instance)]
            payload.rescale = RescaleSpec(
                table=wire_table,
                hash_seed=stream.hash_seed,
                num_instances=self.new_k,
                participants=list(participants),
                retiring=executor.instance >= self.new_k,
            )
            payload.expected_migrations = len(participants) - 1
        for key, holder in self.inventory.get(stream.dst_op, {}).items():
            # the owner every RescaleSpec above will scan towards
            owner, _ = stream.owner(key, wire_table)
            if owner != holder:
                payloads[(stream.dst_op, owner)].receive_keys.append(key)

    # ------------------------------------------------------------------
    # Commit and rollback
    # ------------------------------------------------------------------

    def commit(self, record) -> None:
        """Every POI finished the rescale round: adopt the new instance
        set. Retiring instances are empty by the barrier argument —
        their final PROPAGATE was preceded (same FIFO channel) by all
        old-routed data, and post-swap routing never targets an
        instance ``>= new_k`` — so popping them destroys nothing."""
        record.rescale_spawned = len(self.spawned)
        record.rescale_retired = self._shrink(self.new_k)
        for op_name in self.ops:
            operator = self.deployment.topology.operator(op_name)
            operator.parallelism = self.new_k
            for executor in self.deployment.executors[op_name]:
                executor.set_parallelism(self.new_k)
        self.manager._routed_streams = self.new_streams
        self.manager._streams_by_name = {s.name: s for s in self.new_streams}

    def roll_back(self, record) -> None:
        """The round aborted after provisioning; routing is back on the
        pre-round tables at ``old_k``. After a scale-in the retirees
        simply stay (state scan-migrated off them stays merged on its
        receiver). After a scale-out the doomed instances are retired
        once each is idle with a stable received-count for two polls,
        their state evacuated to the pre-round owners; new rounds wait
        for that."""
        if not self.spawned:
            self.manager._repatch_agents()
            return
        self.manager._rescale = self
        watch = {executor: [-1, 0] for executor in self.spawned}
        self.sim.schedule(_DRAIN_POLL_S, self._poll_drain, record, watch)

    @event_kind("ROLLBACK_DRAIN_POLL")
    def _poll_drain(self, record, watch: Dict) -> None:
        received = self.deployment.metrics.received
        for executor, entry in watch.items():  # [count, quiet polls]
            count = received[(executor.op_name, executor.instance)]
            steady = executor.idle and count == entry[0]
            entry[:] = [count, entry[1] + 1 if steady else 0]
        if min(quiet for _, quiet in watch.values()) < 2:
            self.sim.schedule(_DRAIN_POLL_S, self._poll_drain, record, watch)
            return
        self._shrink(self.old_k, self._evacuate)
        record.rescale_rolled_back = True
        self.manager._rescale = None

    def _shrink(self, width: int, evacuate=None) -> int:
        """Retire every instance of the tier past ``width``, last
        first: forget its agent and tracker, re-wire the agents that
        stay and publish ``elasticity_parallelism``. ``evacuate``
        empties an instance before it goes — a commit needs none (see
        :meth:`commit`). Returns how many instances were retired."""
        manager, deployment = self.manager, self.deployment
        retired = 0
        for op_name in self.ops:
            while len(deployment.executors[op_name]) > width:
                executor = deployment.executors[op_name][-1]
                if evacuate is not None:
                    evacuate(executor)
                deployment.retire_instance(op_name)
                manager._agents.pop((op_name, executor.instance), None)
                if executor in manager._instrumented:
                    manager._instrumented.remove(executor)
                retired += 1
        manager._repatch_agents()
        registry = deployment.metrics.registry
        for op_name in self.ops:
            registry.gauge("elasticity_parallelism", op=op_name).set(width)
        return retired

    def _evacuate(self, executor) -> None:
        """Empty a doomed instance before it is retired: move every
        state entry onto its pre-round owner, and forward what a
        fault-delayed MIGRATE still lands on the removed executor after
        rollback to a live owner, so no count is ever destroyed."""
        op_name = executor.op_name
        stream = next(
            s for s in self.manager._routed_streams if s.dst_op == op_name
        )
        operator = executor.operator
        if isinstance(operator, StatefulBolt) and operator.state:
            entries = executor.extract_state(list(operator.state))
            self._install_on_owners(stream, entries, self.old_k)
        executor.install_state = lambda entries: self._install_on_owners(
            stream, entries, len(self.deployment.executors[op_name])
        )

    def _install_on_owners(self, stream, entries: Dict, width: int) -> None:
        """Install each entry on the instance owning its key under the
        manager's ``current_tables`` at ``width`` (merge install keeps
        per-key totals exact)."""
        table = self.manager.current_tables.get(stream.name)
        groups: Dict[int, Dict] = {}
        for key, value in entries.items():
            owner, _ = key_owner(
                key, table, stream.hash_seed, width, strict=False
            )
            groups.setdefault(owner, {})[key] = value
        for owner, sub in groups.items():
            self.deployment.executor(stream.dst_op, owner).install_state(sub)
