"""Executors: the running instances (POIs) of operators.

An executor owns one operator object, an input queue, and one router
per output stream. The service model (DESIGN.md Section 5):

- processing a tuple costs ``bolt_service_s`` CPU, plus
  ``deser_cost(size)`` when it arrived over the network;
- each emission bound for a remote server adds ``ser_cost(size)`` to
  the *sender's* service time;
- emissions are dispatched when the service time elapses, so the
  executor is a single-threaded pipeline stage, like a Storm executor
  thread.

Control messages (reconfiguration protocol) travel through the same
FIFO channels and the same input queue as data. This gives PROPAGATE
messages barrier semantics: every tuple routed with the old table is
delivered before the PROPAGATE that retires that table (see
core.reconfiguration).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.engine.acker import Acker
from repro.engine.costs import CostModel
from repro.engine.grouping import Router, TableRouter
from repro.engine.metrics import MetricsHub
from repro.engine.operators import (
    Bolt,
    OperatorContext,
    Spout,
    StatefulBolt,
)
from repro.engine.simulator import event_kind
from repro.engine.tuples import Tuple, payload_size
from repro.errors import SimulationError

#: Max source polls a spout drains per scheduled service event.
SPOUT_BATCH = 8
#: Max queued data tuples a bolt drains per scheduled service event
#: (the batch never crosses a control message: barriers intact).
BOLT_BATCH = 8


class ControlMessage:
    """A control-plane message (reconfiguration protocol, migration)."""

    __slots__ = ("kind", "payload", "sender", "size")

    def __init__(
        self, kind: str, payload: Any = None, sender: str = "", size: int = 0
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.sender = sender
        self.size = size

    def __repr__(self) -> str:
        return f"ControlMessage({self.kind!r}, from={self.sender!r})"


class OutEdge:
    """Runtime view of one output stream from one executor."""

    __slots__ = ("stream_name", "router", "destinations", "key_fn")

    def __init__(
        self,
        stream_name: str,
        router: Router,
        destinations: List["BaseExecutor"],
        key_fn: Optional[Callable[[tuple], Any]],
    ) -> None:
        self.stream_name = stream_name
        self.router = router
        self.destinations = destinations
        self.key_fn = key_fn

    def adopt(self, table, destinations=None) -> None:
        """Take a new table and, on a rescale, a new destination list —
        list, router width and table in one step (:meth:`Router.resize`)."""
        if destinations is None:
            self.router.update_table(table)
            return
        self.destinations = list(destinations)
        self.router.resize(len(self.destinations), table)


class BaseExecutor:
    """Shared identity, emission and control plumbing."""

    def __init__(
        self,
        sim,
        cluster,
        op_name: str,
        instance: int,
        parallelism: int,
        server,
        operator,
        costs: CostModel,
        metrics: MetricsHub,
        acker: Acker,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.op_name = op_name
        self.instance = instance
        self.parallelism = parallelism
        self.server = server
        self.operator = operator
        self.costs = costs
        self.metrics = metrics
        self.acker = acker
        #: the hub keys per-instance tallies by (op, instance); built
        #: once so the hot paths don't construct a tuple per tuple
        self._id_key = (op_name, instance)
        self.out_edges: List[OutEdge] = []
        #: stream name → edge, kept in sync by :meth:`add_out_edge` so
        #: :meth:`out_edge` is O(1) (it is hot during reconfiguration:
        #: every ``table_router`` call goes through it)
        self._out_edge_index: Dict[str, OutEdge] = {}
        #: key extraction per input operator name (fields-grouped inputs)
        self.in_key_fns: Dict[str, Callable[[tuple], Any]] = {}
        #: optional hook with ``observe(in_stream, in_key, out_stream,
        #: out_key)`` — set by core.instrumentation
        self.instrumentation = None
        #: optional handler ``fn(msg, executor)`` for control messages —
        #: set by core.reconfiguration
        self.control_handler: Optional[Callable] = None
        #: optional interception hook with ``on_control(executor, msg)
        #: -> bool`` consulted on every control delivery; True means the
        #: hook consumed the delivery — set by repro.faults
        self.fault_hook = None
        self._op_context: Optional[OperatorContext] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.op_name}[{self.instance}]"

    def make_context(self) -> OperatorContext:
        return OperatorContext(
            self.op_name,
            self.instance,
            self.parallelism,
            self.server.index,
            lambda: self.sim.now,
        )

    def _context(self) -> OperatorContext:
        """The reusable per-executor context for the processing loops.

        Identity fields only change through :meth:`set_parallelism`
        (which drops the cached context) and ``_drain`` empties the
        emission buffer after every operator call, so one context
        object serves every invocation.
        """
        context = self._op_context
        if context is None:
            context = self._op_context = self.make_context()
        return context

    def set_parallelism(self, parallelism: int) -> None:
        """Adopt a new operator parallelism (elastic rescale commit).
        Drops the cached operator context so ``num_instances`` reported
        to the operator stays truthful."""
        if parallelism < 1:
            raise SimulationError(
                f"parallelism must be >= 1, got {parallelism}"
            )
        self.parallelism = parallelism
        self._op_context = None

    def add_out_edge(self, edge: OutEdge) -> None:
        """Wire one output edge (deployment time), indexing it by name."""
        self.out_edges.append(edge)
        self._out_edge_index[edge.stream_name] = edge

    def out_edge(self, stream_name: str) -> OutEdge:
        try:
            return self._out_edge_index[stream_name]
        except KeyError:
            raise SimulationError(
                f"{self.name} has no output stream {stream_name!r}"
            ) from None

    def table_router(self, stream_name: str) -> TableRouter:
        router = self.out_edge(stream_name).router
        if not isinstance(router, TableRouter):
            raise SimulationError(
                f"stream {stream_name!r} is not table-routed at {self.name}"
            )
        return router

    # ------------------------------------------------------------------
    # Emission planning and dispatch
    # ------------------------------------------------------------------

    def _plan_emissions(
        self, emissions: List[tuple], root_id: Optional[int]
    ) -> "EmissionPlan":
        """Route emissions now; return the plan plus its ser CPU cost.

        The recursive :func:`payload_size` walk runs once per emitted
        ``values`` and is shared across every destination copy (a
        broadcast to N instances sizes the payload once, not N times).
        """
        plan: List[tuple] = []
        ser_cost = 0.0
        costs = self.costs
        header_bytes = costs.tuple_header_bytes
        my_server = self.server.index
        out_edges = self.out_edges
        emitted = self.metrics.emitted
        id_key = self._id_key
        for values in emissions:
            # ``values`` is already a tuple (OperatorContext.emit
            # normalizes), so Tuple is built directly — make_tuple's
            # re-tupling and size walk would be pure overhead here.
            size = header_bytes + payload_size(values)
            emission_root = root_id
            for edge in out_edges:
                for dst_index in edge.router.select(values):
                    dst = edge.destinations[dst_index]
                    tup = Tuple(values, size, emission_root)
                    if emission_root is None:
                        # First copy of a spout emission anchors the tree.
                        emission_root = tup.root_id
                    remote = dst.server.index != my_server
                    if remote:
                        ser_cost += costs.ser_cost(size)
                    plan.append((edge, dst, tup, remote))
            emitted[id_key] += 1
        return EmissionPlan(plan, ser_cost)

    def _dispatch(self, plan: "EmissionPlan") -> None:
        streams = self.metrics.streams
        transfer = self.cluster.network.transfer
        server = self.server
        op_name = self.op_name
        for edge, dst, tup, remote in plan.entries:
            counters = streams[edge.stream_name]
            size = tup.size
            if remote:
                counters.remote_tuples += 1
                counters.remote_bytes += size
                transfer(
                    server, dst.server, size, dst.deliver, tup, True, op_name
                )
            else:
                counters.local_tuples += 1
                counters.local_bytes += size
                dst.deliver(tup, False, op_name)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def send_control(
        self, dst: "BaseExecutor", msg: ControlMessage, size: Optional[int] = None
    ) -> None:
        """Send a control message through the data channels (FIFO with
        data), so it acts as a barrier."""
        nbytes = self.costs.control_message_bytes if size is None else size
        msg.size = nbytes
        self.metrics.on_control_sent(msg.kind, nbytes)
        if dst.server.index != self.server.index:
            self.cluster.transfer(
                self.server, dst.server, nbytes, dst.deliver_control, msg
            )
        else:
            dst.deliver_control(msg)

    @event_kind("CONTROL_ARRIVE")
    def deliver_control(self, msg: ControlMessage) -> None:
        """Delivery entry point for control messages (local sends,
        network arrivals and manager RPCs all land here). An installed
        fault hook may drop, delay, duplicate or reorder the delivery;
        redeliveries bypass the hook via :meth:`accept_control`."""
        hook = self.fault_hook
        if hook is not None and hook.on_control(self, msg):
            return
        self.accept_control(msg)

    def accept_control(self, msg: ControlMessage) -> None:
        """Enqueue a control message, bypassing fault interception."""
        raise NotImplementedError

    def handle_control(self, msg: ControlMessage) -> None:
        if self.control_handler is None:
            raise SimulationError(
                f"{self.name} received {msg!r} but has no control handler"
            )
        self.control_handler(msg, self)

    # ------------------------------------------------------------------
    # State access (migration support)
    # ------------------------------------------------------------------

    def extract_state(self, keys) -> Dict:
        if isinstance(self.operator, StatefulBolt):
            return self.operator.extract_state(keys)
        return {}

    def install_state(self, entries: Dict) -> None:
        if entries and not isinstance(self.operator, StatefulBolt):
            raise SimulationError(
                f"cannot install state into stateless {self.name}"
            )
        if entries:
            self.operator.install_state(entries)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.operator.close()


class EmissionPlan:
    __slots__ = ("entries", "ser_cost")

    def __init__(self, entries: List[tuple], ser_cost: float) -> None:
        self.entries = entries
        self.ser_cost = ser_cost

    def __len__(self) -> int:
        return len(self.entries)


#: what a tuple that emitted nothing dispatches (shared, never mutated)
_EMPTY_PLAN = EmissionPlan([], 0.0)


class BoltExecutor(BaseExecutor):
    """Executor for bolts: input queue + service-time processing."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._queue: deque = deque()
        self._busy = False
        #: keys whose state is expected from a peer; tuples buffered.
        #: A dict (not a set) so iteration follows insertion order —
        #: set order depends on PYTHONHASHSEED for string keys, which
        #: would make the abort-path bulk release non-replayable.
        self._held_keys: Dict[Any, None] = {}
        self._held_tuples: Dict[Any, List[tuple]] = {}
        self.buffered_count = 0
        self._crashed = False
        self.crash_count = 0

    # -- fault injection --------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self, down_s: float = 0.0) -> None:
        """Kill this instance: its queue, buffers and state are lost
        (the engine-level failure Section 3.4 defers to). Deliveries
        while down are dropped; unacked trees time out and replay at
        their spout. The supervisor restarts the instance (with empty
        state) after ``down_s`` seconds."""
        self._crashed = True
        self.crash_count += 1
        self._queue.clear()
        self._held_keys.clear()
        self._held_tuples.clear()
        self._busy = False
        if isinstance(self.operator, StatefulBolt):
            self.operator.state.clear()
        self.sim.post(down_s, self._restart)

    @event_kind("POI_RESTART")
    def _restart(self) -> None:
        self._crashed = False
        self._maybe_start()

    # -- delivery --------------------------------------------------------

    @event_kind("TUPLE_ARRIVE")
    def deliver(self, tup: Tuple, remote: bool, src_op: str) -> None:
        if self._crashed:
            self.metrics.dropped[self.op_name] += 1
            return
        self.metrics.received[self._id_key] += 1
        self._queue.append(("data", tup, remote, src_op))
        if not self._busy:
            self._busy = True
            self._process_next()

    def accept_control(self, msg: ControlMessage) -> None:
        if self._crashed:
            self.metrics.dropped[self.op_name] += 1
            return
        self._queue.append(("ctrl", msg, False, msg.sender))
        self._maybe_start()

    # -- key holding (state migration buffering) -------------------------

    def hold_keys(self, keys) -> None:
        """Buffer incoming tuples for ``keys`` until their state arrives
        (Section 3.4: the stream is not suspended during migration)."""
        for key in keys:
            self._held_keys[key] = None

    def release_key(self, key) -> None:
        """State for ``key`` arrived: replay its buffered tuples, in
        order, ahead of anything else in the queue."""
        self._held_keys.pop(key, None)
        buffered = self._held_tuples.pop(key, [])
        for item in reversed(buffered):
            self._queue.appendleft(item)
        if buffered:
            self._maybe_start()

    def release_all_held(self) -> None:
        """Release every held key, in the order they were held (the
        abort path; deterministic regardless of key hashing)."""
        for key in list(self._held_keys):
            self.release_key(key)

    @property
    def held_keys(self) -> set:
        return set(self._held_keys)

    # -- load / drain introspection ---------------------------------------

    @property
    def queue_depth(self) -> int:
        """Items waiting in the input queue (data + control). The
        elasticity controller's primary load signal."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """True when the executor has nothing queued and no service
        event in flight — the rescale-rollback drain watcher polls this
        before evacuating a doomed instance."""
        return not self._busy and not self._queue

    # -- processing loop --------------------------------------------------

    def _maybe_start(self) -> None:
        if not self._busy and self._queue and not self._crashed:
            self._busy = True
            self._process_next()

    def _process_next(self) -> None:
        """Drain the queue: up to :data:`BOLT_BATCH` consecutive data
        items are processed per scheduled service event (one heap push
        instead of N), with their modeled service times summed. A batch
        never crosses a control message, so control barriers see
        exactly the FIFO order they saw with per-tuple events."""
        queue = self._queue
        costs = self.costs
        bolt_service_s = costs.bolt_service_s
        held_keys = self._held_keys
        instrumentation = self.instrumentation
        process = self.operator.process
        plan_emissions = self._plan_emissions
        context = self._context()
        drain = context._drain
        while queue:
            if queue[0][0] == "ctrl":
                msg = queue.popleft()[1]
                self.sim.post(
                    costs.control_service_s,
                    self._finish_control,
                    msg,
                    self.crash_count,
                )
                return

            batch: List[tuple] = []
            service = 0.0
            while queue and queue[0][0] == "data" and len(batch) < BOLT_BATCH:
                item = queue.popleft()
                _, tup, remote, src_op = item
                in_key = None
                # The routing key is read by key holding and by the
                # instrumentation only: extract it for them alone.
                if held_keys or instrumentation is not None:
                    in_key_fn = self.in_key_fns.get(src_op)
                    if in_key_fn is not None:
                        in_key = in_key_fn(tup.values)
                    if in_key is not None and in_key in held_keys:
                        # State not here yet: buffer without processing.
                        self._held_tuples.setdefault(in_key, []).append(item)
                        self.buffered_count += 1
                        continue

                service += bolt_service_s
                if remote:
                    service += costs.deser_cost(tup.size)

                process(tup, context)
                emissions = drain()
                if not emissions:
                    batch.append((tup, _EMPTY_PLAN))
                    continue
                plan = plan_emissions(emissions, tup.root_id)
                service += plan.ser_cost

                if instrumentation is not None and in_key is not None:
                    for values in emissions:
                        for edge in self.out_edges:
                            if edge.key_fn is not None:
                                instrumentation.observe(
                                    src_op,
                                    in_key,
                                    edge.stream_name,
                                    edge.key_fn(values),
                                )
                batch.append((tup, plan))

            if batch:
                self.sim.post(
                    service, self._finish_data, batch, self.crash_count
                )
                return
            # Everything dequeued was buffered for held keys: keep
            # draining (a control message may be next).
        self._busy = False

    @event_kind("BATCH_DONE")
    def _finish_data(self, batch: List[tuple], epoch: int) -> None:
        if epoch != self.crash_count:
            # Crashed mid-service (restarted since or not): the batch
            # and its emissions are lost — never acked, so the trees
            # time out and replay — and so is its service chain.
            return
        on_processed = self.acker.on_processed
        processed = self.metrics.processed
        id_key = self._id_key
        for tup, plan in batch:
            entries = plan.entries
            if entries:
                self._dispatch(plan)
            processed[id_key] += 1
            on_processed(tup.root_id, len(entries))
        if self._queue:
            self._process_next()
        else:
            self._busy = False

    @event_kind("CONTROL_DONE")
    def _finish_control(self, msg: ControlMessage, epoch: int) -> None:
        if epoch != self.crash_count:
            return
        self.handle_control(msg)
        if self._queue:
            self._process_next()
        else:
            self._busy = False


class SpoutExecutor(BaseExecutor):
    """Executor for spouts: credit-driven polling loop.

    Control messages are serialized with the polling loop: if a poll is
    in flight, the control message is handled right after that poll's
    emissions are dispatched, preserving channel ordering with respect
    to data.
    """

    def __init__(self, *args, max_pending: int = 256, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if max_pending < 1:
            raise SimulationError(f"max_pending must be >= 1: {max_pending}")
        self.max_pending = max_pending
        self.pending = 0
        self._in_flight = False
        self._waiting_for_ack = False
        self._stopped = False
        self._control_queue: deque = deque()
        #: failed (timed-out) emissions waiting to be replayed
        self._replay: deque = deque()
        self.replayed = 0

    def start(self) -> None:
        self.sim.post(0.0, self._poll)

    def deliver(self, tup: Tuple, remote: bool, src_op: str) -> None:
        raise SimulationError(f"spout {self.name} cannot receive data tuples")

    def accept_control(self, msg: ControlMessage) -> None:
        self._control_queue.append(msg)
        if not self._in_flight:
            self._drain_control()

    def _drain_control(self) -> None:
        while self._control_queue:
            self.handle_control(self._control_queue.popleft())

    # -- polling loop ------------------------------------------------------

    @event_kind("SPOUT_POLL")
    def _poll(self) -> None:
        """One scheduled poll drains up to :data:`SPOUT_BATCH` source
        polls (replays first), so N emitted tuples cost one service
        event instead of N. The credit check caps the batch at the
        remaining ``max_pending`` budget; service time stays
        ``spout_service_s`` per emission, so simulated rates match the
        per-event loop."""
        if self._stopped or self._in_flight:
            return
        if self.pending >= self.max_pending:
            self._waiting_for_ack = True
            return
        costs = self.costs
        emissions: List[tuple] = []
        produced = False
        while (
            len(emissions) < SPOUT_BATCH
            and self.pending + len(emissions) < self.max_pending
        ):
            if self._replay:
                emissions.append(self._replay.popleft())
                self.replayed += 1
                continue
            context = self._context()
            produced = self.operator.next_tuple(context)
            polled = context._drain()
            if not polled:
                break
            emissions.extend(polled)
        if not emissions:
            if self.operator.finished:
                if self.pending > 0:
                    # Failed tuples may still come back for replay.
                    self._waiting_for_ack = True
                else:
                    self._stopped = True
                return
            if produced:
                # Did work but emitted nothing: poll again immediately.
                self.sim.post(costs.spout_service_s, self._poll)
            else:
                self.sim.post(costs.spout_idle_retry_s, self._poll)
            return

        service = costs.spout_service_s * len(emissions)
        plans: List[EmissionPlan] = []
        register = self.acker.register
        # on_fail is the timeout's callback: no timeout, no closure
        replayable = self.acker.timeout_s is not None
        for values in emissions:
            plan = self._plan_emissions([values], root_id=None)
            if not plan.entries:
                continue
            root_id = plan.entries[0][2].root_id
            register(
                root_id,
                self._on_ack,
                (lambda v=values: self._on_fail(v)) if replayable else None,
            )
            self.pending += 1
            service += plan.ser_cost
            plans.append(plan)
        self._in_flight = True
        self.sim.post(service, self._finish_poll, plans)

    @event_kind("EMIT_DONE")
    def _finish_poll(self, plans: List[EmissionPlan]) -> None:
        on_processed = self.acker.on_processed
        for plan in plans:
            self._dispatch(plan)
            # The spout's virtual root tuple is now "processed", having
            # spawned len(plan) children (1 unless broadcasting).
            entries = plan.entries
            on_processed(entries[0][2].root_id, len(entries))
        self._in_flight = False
        self._drain_control()
        if not self._stopped:
            if self.pending >= self.max_pending:
                self._waiting_for_ack = True
            else:
                self._poll()

    def _on_ack(self) -> None:
        self.pending -= 1
        if self.pending < 0:
            raise SimulationError(f"{self.name} pending went negative")
        if self._waiting_for_ack and not self._stopped:
            # Wake hysteresis: once the credit window is full the
            # pipeline is ack-clocked — waking on every single ack
            # would hand each poll a budget of exactly one credit and
            # the batch below would never form. Let acks accumulate a
            # batch worth of credit before resuming. Replays wake
            # immediately (a timed-out tuple must not wait for credit
            # that may never come) and so do finished spouts (the poll
            # is what notices pending == 0 and stops the loop).
            if (
                self.max_pending - self.pending
                >= min(SPOUT_BATCH, self.max_pending)
                or self._replay
                or self.operator.finished
            ):
                self._waiting_for_ack = False
                self._poll()

    def _on_fail(self, values: tuple) -> None:
        """The tuple tree timed out: replay it (at-least-once)."""
        self.pending -= 1
        if self.pending < 0:
            raise SimulationError(f"{self.name} pending went negative")
        self._replay.append(values)
        if not self._in_flight and not self._stopped:
            self._waiting_for_ack = False
            self._poll()

    @property
    def stopped(self) -> bool:
        return self._stopped
