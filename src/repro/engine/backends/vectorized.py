"""The batched-vectorized fast path (DESIGN.md §15).

The DES executes one simulator event per tuple hop; this backend packs
tuples into :class:`~repro.engine.physical.TupleBatch` micro-batches
and resolves everything per *batch*:

- each stream routes through its
  :class:`~repro.engine.physical.StreamRoutes`, the multiprocess
  workers' too: a deterministic router's ``route`` keeps a **key
  vocabulary** (key → dense int id, interned once per distinct key)
  and an id → destination array resolved with the owner rule of
  ``select``, so a batch routes as one numpy gather instead of
  len(batch) Python calls;
- counting bolts on such a stream accumulate per-instance
  ``np.bincount`` over its key ids; a forwarding one's ``add_input``
  returns the batch it took as its output, sizes and interned ids
  kept;
- payload bytes are sized once per batch, at the first edge it
  crosses; a field that edge or a later one routes on through a
  deterministic router is interned once and sized by a gather on its
  vocabulary id;
- locality and the time model are numpy reductions.
  The model is the DES's cost model in closed form: CPU busy seconds
  per executor, NIC transfer seconds per server, and ``sim_s`` the
  busiest executor CPU or server NIC.

Python-level work is O(batch) plus O(distinct new keys) per batch (the
vocabulary and route arrays extend once per unique key); the per-tuple
costs that remain are cheap dict/list operations in tight loops.

Exactness contract (enforced by :mod:`repro.testing.equivalence`):

- **table / hash** streams: per-tuple routing decisions identical to
  the DES routers (pure functions of the key);
- **hybrid** streams: one router per source instance, as on the DES
  and the multiprocess workers. Tail keys identical; split keys land
  inside the member set, picked by the least-loaded counter of their
  source's router, which credits tail traffic per batch where the DES
  credits it per tuple: per-key totals and member-set containment are
  guaranteed against the DES, every decision against multiprocess;
- **PKG** streams: one router per source instance, so the d-choices
  pick is the DES's whenever each source instance's tuples reach its
  router in the DES's order (a spout-fed edge); elsewhere candidate
  sets and totals are;
- **shuffle** streams: one round-robin per source instance, started at
  its index: identical to the DES on a spout-fed edge, in aggregate
  elsewhere.

Operators without a vectorized kernel (anything that is not a
:class:`~repro.engine.operators.CountBolt` counting its table or hash
input stream's routing key) run as real operator instances behind the
shared :class:`~repro.engine.physical.HostedBolt` — correct for any
bolt, one ``process_batch`` call per (instance, batch).
"""

from __future__ import annotations

import time
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.operators import CountBolt
from repro.engine.physical import (
    HostedBolt,
    PhysicalEdge,
    PhysicalOperator,
    PhysicalPlan,
    SpoutSource,
    StreamRoutes,
    TupleBatch,
    placement,
)
from repro.engine.grouping import Router
from repro.engine.topology import Topology
from repro.engine.tuples import Padding, field_size, payload_size
from repro.errors import RoutingError


class _Meter:
    """Modeled busy seconds, charged as the DES charges them: CPU per
    executor — each (operator, instance) is its own thread, as in Storm
    — and NIC tx / rx per server."""

    def __init__(
        self,
        placements: Dict[str, np.ndarray],
        num_servers: int,
        costs,
        bandwidth_gbps,
    ) -> None:
        self.costs = costs
        #: operator → CPU seconds per instance, sized to the operator's
        #: placement so the instances a scripted rescale adds fit
        self.cpu_s = {op: np.zeros(len(p)) for op, p in placements.items()}
        self.nic_tx_s = np.zeros(num_servers)
        self.nic_rx_s = np.zeros(num_servers)
        self.bytes_per_s = (
            bandwidth_gbps * 1e9 / 8.0 if bandwidth_gbps else None
        )

    def sim_s(self) -> float:
        """Modeled makespan: the busiest executor CPU or server NIC
        bounds throughput."""
        busiest = max(float(cpu.max()) for cpu in self.cpu_s.values())
        if self.bytes_per_s:
            busiest = max(
                busiest,
                float(self.nic_tx_s.max()),
                float(self.nic_rx_s.max()),
            )
        return busiest


def _charge_crossing(cpu, instances, nbytes, fixed_s, per_byte_s):
    """Charge the (de)serialization of server-crossing tuples to the
    instances that handled them; return their bytes per instance."""
    size = len(cpu)
    bytes_of = np.bincount(instances, weights=nbytes, minlength=size)
    cpu += np.bincount(instances, minlength=size) * fixed_s
    cpu += bytes_of * per_byte_s
    return bytes_of


def _column_sizes(column: List[Any]) -> np.ndarray:
    """``field_size`` of each value of one column. A column of one
    exact class takes one C-level pass, any other ``field_size`` per
    value."""
    classes = set(map(type, column))
    measure = field_size
    if len(classes) == 1:
        cls = classes.pop()
        if cls is int or cls is float:
            return np.full(len(column), 8, dtype=np.int64)
        if cls is bytes or (cls is str and "".join(column).isascii()):
            measure = len
        elif cls is Padding:
            measure = attrgetter("nbytes")
    return np.fromiter(map(measure, column), dtype=np.int64, count=len(column))


def _modeled_sizes(
    values: Sequence[tuple],
    header: int,
    by_id: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    """Modeled wire bytes of each value tuple, header included:
    ``payload_size(v) + header``, computed column by column
    (:func:`_column_sizes`); a ragged or empty batch takes
    ``payload_size`` per tuple. ``by_id`` maps a field to the bytes of
    its values already known (an edge that routes on it gathers them by
    vocabulary id), so that column is not walked."""
    n_tuples = len(values)
    widths = set(map(len, values))
    if len(widths) != 1:
        return np.fromiter(
            (payload_size(v) + header for v in values),
            dtype=np.int64,
            count=n_tuples,
        )
    by_id = by_id or {}
    sizes = np.full(n_tuples, header, dtype=np.int64)
    for field in range(widths.pop()):
        known = by_id.get(field)
        if known is None:
            known = _column_sizes(list(map(itemgetter(field), values)))
        sizes += known
    return sizes


def _key_field(routes: StreamRoutes) -> Optional[int]:
    """The stream's routing key field when it is one and the stream's
    one router (deterministic) interns it in its one vocabulary."""
    key_spec = getattr(routes.stream.grouping, "key_spec", None)
    if isinstance(key_spec, int) and routes.router.deterministic:
        return key_spec
    return None


class _VectorEdge(PhysicalEdge):
    """One stream's routing, sizing and cost/locality accounting.

    :meth:`deliver` routes every batch crossing the edge through the
    stream's :class:`~repro.engine.physical.StreamRoutes` (a
    mixed-source batch put back in batch order), sizes it if no edge
    has, accounts bytes/locality/served time, and hands the consumer a
    routed batch (``dst_instances`` and — for a deterministic stream —
    ``key_ids`` filled in).

    Only a deterministic stream has one router, hence one key
    vocabulary: the bincount operators index their counts by its ids,
    and its routing key is sized by id. Hybrid, PKG and shuffle streams
    route per source instance and are sized by column.
    """

    def __init__(
        self,
        stream,
        src: PhysicalOperator,
        dst: PhysicalOperator,
        routes: StreamRoutes,
        placements: Dict[str, np.ndarray],
        meter: _Meter,
    ) -> None:
        super().__init__(
            stream.name, src, dst, dst.input_names.index(stream.name), routes
        )
        self.src_placement = placements[stream.src]
        self.dst_placement = placements[stream.dst]
        self.meter = meter
        self.src_cpu = meter.cpu_s[stream.src]
        self.dst_cpu = meter.cpu_s[stream.dst]
        #: source instance 0's router: the edge's only one if deterministic
        self.router = routes.router
        if type(self.router).route is Router.route:
            raise RoutingError(
                f"vectorized backend does not support "
                f"{type(stream.grouping).__name__}, which has no batch "
                f"form (reference or multiprocess backend required)"
            )
        #: the routing key's field, sized by key id, or None
        self._key_field = _key_field(routes)
        #: vocabulary id → modeled bytes of that key, grown with the
        #: router's vocabulary (which no table swap or resize resets)
        self.sizes_of_id = np.zeros(0, dtype=np.int64)
        #: the keyed edges that route a batch this edge sizes after it,
        #: on the same values (set by the compiler)
        self.interns_for: List["_VectorEdge"] = []
        # the batch state that the count operators and migration read
        # exists from the start, as if a batch had been routed
        self.router.route([])
        self.remote_bytes = 0

    def deliver(self, batch: TupleBatch) -> TupleBatch:
        ids = None
        if self._key_field is not None:  # interned by the sizing edge?
            ids = batch.interned.get(self.router.vocab)
        dst, ids, rows = self.routes.route(
            batch.values, batch.src_instances, ids
        )
        if rows is not None:  # grouped by source: back to batch order
            in_order = np.empty_like(dst)
            in_order[rows] = dst
            dst = in_order
        if batch.sizes is None:
            # Sized by the first edge the batch crosses, kept on it for
            # the others (a fan-out, a counting bolt's forward).
            batch.sizes = self._sizes(batch, ids)
        self._account(batch, dst)
        return TupleBatch(
            batch.values,
            src_instances=batch.src_instances,
            dst_instances=dst,
            sizes=batch.sizes,
            key_ids=ids,
            interned=batch.interned,
        )

    def _sizes(self, batch: TupleBatch, ids) -> np.ndarray:
        """Modeled bytes of a batch this edge is the first to cross.

        A field that this edge or a later one (``interns_for``) routes
        on is sized by a gather on that edge's ``sizes_of_id``. The
        later edge's field is interned into its vocabulary here, and
        the ids are left on the batch for it to route by. Every other
        field is sized by column."""
        values = batch.values
        by_id = {}
        if self._key_field is not None:
            by_id[self._key_field] = self._sizes_of(ids)
        for later in self.interns_for:
            field = later._key_field
            vocab = later.router.vocab
            later_ids = batch.interned[vocab] = vocab.encode(
                list(map(itemgetter(field), values))
            )
            if field not in by_id:
                by_id[field] = later._sizes_of(later_ids)
        return _modeled_sizes(
            values, self.meter.costs.tuple_header_bytes, by_id
        )

    def _sizes_of(self, ids) -> np.ndarray:
        """Modeled bytes of the vocabulary keys ``ids``, each new key
        sized once, by the column rule, in interning order."""
        keys = self.router.vocab.keys
        known = len(self.sizes_of_id)
        if len(keys) > known:
            self.sizes_of_id = np.concatenate(
                [self.sizes_of_id, _column_sizes(keys[known:])]
            )
        return self.sizes_of_id[ids]

    def _account(self, batch: TupleBatch, dst: np.ndarray) -> None:
        meter = self.meter
        costs = meter.costs
        routes = self.routes
        n_tuples = len(dst)
        routes.total_tuples += n_tuples
        # The destination instance's CPU: the bolt's service time.
        width = routes.n
        self.dst_cpu[:width] += (
            np.bincount(dst, minlength=width) * costs.bolt_service_s
        )

        src = batch.src_instances
        remote = self.src_placement[src] != self.dst_placement[dst]
        n_remote = int(remote.sum())
        routes.local_tuples += n_tuples - n_remote
        if not n_remote:
            return
        # Server-crossing tuples: ser at the source instance, deser at
        # the destination, their bytes on both servers' NICs.
        remote_bytes = batch.sizes[remote]
        self.remote_bytes += int(remote_bytes.sum())
        tx_bytes = _charge_crossing(
            self.src_cpu,
            src[remote],
            remote_bytes,
            costs.ser_fixed_s,
            costs.ser_per_byte_s,
        )
        rx_bytes = _charge_crossing(
            self.dst_cpu,
            dst[remote],
            remote_bytes,
            costs.deser_fixed_s,
            costs.deser_per_byte_s,
        )
        if meter.bytes_per_s:
            num_servers = len(meter.nic_tx_s)
            meter.nic_tx_s += np.bincount(
                self.src_placement, weights=tx_bytes, minlength=num_servers
            ) / meter.bytes_per_s
            meter.nic_rx_s += np.bincount(
                self.dst_placement, weights=rx_bytes, minlength=num_servers
            ) / meter.bytes_per_s


# ----------------------------------------------------------------------
# Physical operators
# ----------------------------------------------------------------------


class _VectorSpoutSource(SpoutSource):
    """All instances of one spout; each instance's service time goes on
    its executor's meter. Its batches leave unsized: the first edge
    they cross sizes them, every routed field by vocabulary id."""

    def __init__(self, spec, placement: np.ndarray, meter, options) -> None:
        super().__init__(
            spec.name,
            spec.factory,
            spec.parallelism,
            {i: int(placement[i]) for i in range(spec.parallelism)},
            options.batch_size,
        )
        self.meter = meter
        self.cpu_s = meter.cpu_s[spec.name]

    def _make_batch(self, instance: int, values: List[tuple]) -> TupleBatch:
        self.cpu_s[instance] += len(values) * self.meter.costs.spout_service_s
        return super()._make_batch(instance, values)


class _VectorCountOp(PhysicalOperator):
    """Vectorized CountBolt: per-instance bincount over the input
    stream's key ids (valid because the counted key *is* the routing
    key, proven at compile time via ``key_spec``, and the stream has one
    vocabulary)."""

    def __init__(
        self,
        name: str,
        input_names,
        parallelism: int,
        forward: bool,
        routes: StreamRoutes,
    ) -> None:
        super().__init__(name, input_names)
        self.forward = forward
        self.routes = routes
        self._counts: List[np.ndarray] = []
        #: tuples taken so far, per instance (as ``HostedBolt``'s)
        self.received: Dict[int, int] = {}
        self.resize(parallelism)

    def _ensure(self, instance: int, size: int) -> None:
        counts = self._counts[instance]
        if len(counts) < size:
            grown = np.zeros(max(size, 2 * len(counts)), dtype=np.int64)
            grown[: len(counts)] = counts
            self._counts[instance] = grown

    def _process(
        self, batch: TupleBatch, input_index: int
    ) -> Optional[TupleBatch]:
        ids = batch.key_ids
        dst = batch.dst_instances
        vocab_size = len(self.routes.router.vocab.keys)
        instances = np.flatnonzero(np.bincount(dst)).tolist()
        for instance in instances:
            mine = ids if len(instances) == 1 else ids[dst == instance]
            tallies = np.bincount(mine, minlength=vocab_size)
            self._ensure(instance, len(tallies))
            self._counts[instance][: len(tallies)] += tallies
            self.received[instance] += len(mine)
        if not self.forward:
            return None
        return TupleBatch(
            batch.values,
            src_instances=dst,
            sizes=batch.sizes,
            interned=batch.interned,
        )

    def resize(self, parallelism: int) -> None:
        for instance in range(len(self._counts), parallelism):
            self._counts.append(np.zeros(0, dtype=np.int64))
            self.received[instance] = 0

    def migrate(self, _owner_of) -> Dict[int, Dict[Any, Any]]:
        """Move every key's count to the owner instance its stream's
        router now names — the state-migration step of a scripted
        reconfiguration, all of it between instances hosted here."""
        owner_of_id = self.routes.router.owners
        size = len(owner_of_id)
        for instance, counts in enumerate(self._counts):
            limit = min(len(counts), size)
            if not limit:
                continue
            held = np.nonzero(counts[:limit])[0]
            moving = held[owner_of_id[held] != instance]
            for kid in moving:
                owner = int(owner_of_id[kid])
                self._ensure(owner, kid + 1)
                self._counts[owner][kid] += counts[kid]
                counts[kid] = 0
        return {}

    # -- result extraction ---------------------------------------------

    def state_snapshot(self) -> Dict[int, Dict[Any, int]]:
        """``{instance: {key: count}}``, as a hosted ``CountBolt``'s."""
        keys = self.routes.router.vocab.keys
        snapshot: Dict[int, Dict[Any, int]] = {}
        for instance, counts in enumerate(self._counts):
            held = np.flatnonzero(counts)
            held_keys = map(keys.__getitem__, held.tolist())
            snapshot[instance] = dict(zip(held_keys, counts[held].tolist()))
        return snapshot


# ----------------------------------------------------------------------
# Compilation + driver
# ----------------------------------------------------------------------


def _count_fast_path(operator, in_routes) -> bool:
    """Whether the bolt is a CountBolt counting its (single) input
    stream's routing key, interned in the stream's one vocabulary (a
    deterministic router) — the condition for the bincount kernel."""
    if not isinstance(operator, CountBolt) or len(in_routes) != 1:
        return False
    key_field = _key_field(in_routes[0])
    return (
        key_field is not None
        and isinstance(operator.key_spec, int)
        and key_field == operator.key_spec
    )


class _VectorizedRun:
    """Compiled plan plus the placement and cost meter of the run."""

    def __init__(self, topology: Topology, options) -> None:
        from repro.engine.backends import _default_servers

        self.topology = topology
        self.options = options
        self.num_servers = _default_servers(topology, options)
        # Widths a scripted rescale may grow to must be placeable.
        widest = max(
            [op.parallelism for op in topology.operators.values()]
            + [a.parallelism or 1 for a in options.actions]
        )
        self.placements: Dict[str, np.ndarray] = {
            op.name: placement(
                np.arange(max(op.parallelism, widest), dtype=np.int64),
                self.num_servers,
            )
            for op in topology.operators.values()
        }
        self.meter = _Meter(
            self.placements,
            self.num_servers,
            options.costs,
            options.bandwidth_gbps,
        )

        routes = {
            stream.name: StreamRoutes(
                stream,
                topology.operator(stream.dst).parallelism,
                self.num_servers,
            )
            for stream in topology.streams
        }
        self.ops: Dict[str, PhysicalOperator] = {}
        for name in topology.topological_order():
            spec = topology.operator(name)
            if spec.is_spout:
                self.ops[name] = _VectorSpoutSource(
                    spec, self.placements[name], self.meter, options
                )
                continue
            probe = spec.factory()
            input_names = [s.name for s in topology.inputs_of(name)]
            in_routes = [routes[stream] for stream in input_names]
            if _count_fast_path(probe, in_routes):
                self.ops[name] = _VectorCountOp(
                    name,
                    input_names,
                    spec.parallelism,
                    probe.forwards,
                    in_routes[0],
                )
            else:
                self.ops[name] = HostedBolt(
                    name,
                    input_names,
                    spec.factory,
                    spec.parallelism,
                    self.num_servers,
                    options.costs.tuple_header_bytes,
                )

        self.edges_by_stream: Dict[str, _VectorEdge] = {
            stream.name: _VectorEdge(
                stream,
                self.ops[stream.src],
                self.ops[stream.dst],
                routes[stream.name],
                self.placements,
                self.meter,
            )
            for stream in topology.streams
        }
        for stream in topology.streams:
            self.edges_by_stream[stream.name].interns_for = [
                later
                for later in self._later(stream)
                if later._key_field is not None
            ]
        self.plan = PhysicalPlan(
            list(self.ops.values()), list(self.edges_by_stream.values())
        )
        self._pending = sorted(options.actions, key=lambda a: a.at_tuples)

    def _later(self, stream) -> List[_VectorEdge]:
        """The streams that route a batch after ``stream`` has, on the
        same values: the producer's out-streams after it (a fan-out
        pushes one batch object through them in order) and, behind a
        forwarding counting bolt, its out-streams, transitively."""
        siblings = self.topology.outputs_of(stream.src)
        reached = siblings[siblings.index(stream) + 1 :]
        frontier = [stream, *reached]
        while frontier:
            consumer = self.ops[frontier.pop().dst]
            if isinstance(consumer, _VectorCountOp) and consumer.forward:
                forwarded = self.topology.outputs_of(consumer.name)
                reached += forwarded
                frontier += forwarded
        return [self.edges_by_stream[later.name] for later in reached]

    def _on_round(self, plan: PhysicalPlan) -> None:
        while self._pending and plan.emitted() >= self._pending[0].at_tuples:
            self._apply(self._pending.pop(0))

    def _apply(self, action) -> None:
        """Swap, then migrate: at a quiescent point nothing waits."""
        consumer, owner_of, _ = self.plan.reconfigure(action)
        consumer.migrate(owner_of)

    def execute(self) -> float:
        start = time.perf_counter()
        self.plan.execute(on_round=self._on_round)
        while self._pending:
            self._apply(self._pending.pop(0))
        return time.perf_counter() - start


def run_vectorized(topology: Topology, options) -> "BackendResult":
    from repro.engine.backends import BackendResult, summarize_plans

    run = _VectorizedRun(topology, options)
    wall = run.execute()
    return BackendResult(
        backend="vectorized",
        sim_s=run.meter.sim_s(),
        handle=run,
        **summarize_plans(topology, [run.plan.report()], wall),
    )
