"""The physical-operator seam: pluggable execution backends.

The topology layer (:mod:`repro.engine.topology`) describes *what* to
compute; this module defines the contract for *how* a backend executes
it. A backend compiles a :class:`~repro.engine.topology.Topology` into
a DAG of :class:`PhysicalOperator` instances — ``add_input`` returns
what an operator emits for a batch, ``input_done`` records an
exhausted input — joined by :class:`PhysicalEdge` objects and driven
by a :class:`PhysicalPlan`, the one walk of both batch backends. The
shape is Ray Data's streaming-executor seam without its pull side: no
operator here is asynchronous, so, as a Storm bolt's emissions, its
output exists when ``add_input`` returns. The base class maintains
per-operator :class:`OpStats`; an operator completes once every input
is done.

Three backends ship (see :mod:`repro.engine.backends`):

- ``reference`` — an adapter over the existing discrete-event
  simulator. It does not route through :class:`PhysicalOperator` at
  all: the DES executors stay byte-identical (same event fingerprints)
  and serve as the correctness oracle.
- ``vectorized`` — one plan over the whole topology: tuples batched
  into numpy columns, routing resolved per *batch* instead of per
  tuple (DESIGN.md §15), driven in bulk by :meth:`PhysicalPlan.execute`.
- ``multiprocess`` — one plan per worker process over its server's
  shard, driven step by step (:meth:`PhysicalPlan.step`, with
  :meth:`~PhysicalPlan.feed` / :meth:`~PhysicalPlan.finish` for what
  arrives from peers); its edges ship remote tuples (DESIGN.md §16).

What the batch backends share beyond the protocol lives here too: the
round-robin :func:`placement` of every backend, the two operators that
host real operator objects — :class:`SpoutSource` over spout instances
and :class:`HostedBolt` over bolt instances, which it drives through
``Bolt.process_batch`` under a plain ``OperatorContext`` whose clock
reads 0 — :class:`StreamRoutes`, which holds a stream's routers, and
:func:`merge_counts`, which sums plans' counters. The module still
loads without numpy (``repro.engine`` re-exports the seam, and the DES
needs no dependency): only the batch methods use it, from the moment
they are handed a batch.

Data moves between physical operators as :class:`TupleBatch` — a
columnar micro-batch: the Python value tuples ride along (operators
that need raw values still get them), while the per-tuple key ids,
modeled payload sizes and source instances live in numpy arrays so
routing, counting and cost accounting are O(batch) array ops.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import compress, islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.grouping import Router, route_per_source, stream_context
from repro.engine.operators import (
    Bolt,
    IteratorSpout,
    OperatorContext,
    Spout,
    StatefulBolt,
)
from repro.errors import DeploymentError


def placement(instance, num_servers: int):
    """The server of operator instance ``instance`` (an index or an
    array of them) on every backend: round-robin, ``i % num_servers``,
    the paper's static placement."""
    return instance % num_servers


@dataclass
class OpStats:
    """Per-operator execution counters, maintained by the base class.

    **Mutation contract**: an ``OpStats`` is plain unsynchronized
    state, incremented by whichever single thread drives the owning
    operator. That is safe because a :class:`PhysicalPlan` is driven by
    exactly one thread; a backend that shards an operator across
    threads or processes must give every shard its *own* operator (and
    hence its own ``OpStats``) and sum their ``dataclasses.asdict``
    forms afterwards with :func:`merge_counts` — never share one
    ``OpStats`` across concurrent mutators.
    """

    batches_in: int = 0
    batches_out: int = 0
    tuples_in: int = 0
    tuples_out: int = 0
    #: wall-clock seconds inside the operator's ``_process`` (a
    #: source's ``_poll``): operator work, not the routing or
    #: transport of what it emits
    busy_s: float = 0.0


def merge_counts(shards) -> Dict[str, Dict[str, float]]:
    """Sum ``{name: {counter: value}}`` mappings across the shards of
    one logical plan (one per worker process), into new dicts: nothing
    is double-counted, and a name missing from a shard contributed
    zero. ``busy_s`` sums to total work, not makespan."""
    merged: Dict[str, Dict[str, float]] = {}
    for shard in shards:
        for name, counts in shard.items():
            into = merged.setdefault(name, {})
            for counter, value in counts.items():
                into[counter] = into.get(counter, 0) + value
    return merged


class TupleBatch:
    """A columnar micro-batch of tuples flowing between physical ops.

    Attributes
    ----------
    values:
        The raw value tuples, in batch order (kept so scalar operators
        and downstream key extraction can always recover full fidelity).
    src_instances:
        Per-tuple producing instance of the upstream logical operator
        (numpy integer array; None on batches a multiprocess worker
        received or routed — consumers never read it, so it is not
        shipped).
    dst_instances:
        Per-tuple destination instance (numpy integer array), filled
        in by the edge router before the batch is handed to the
        consumer (None until routed).
    sizes:
        Modeled payload bytes per tuple, header included. None until
        the first edge the batch crosses sizes it (the vectorized
        backend; the multiprocess one measures bytes instead), then
        kept for every later edge and forward. A field that edge or a
        later one routes on is sized by a gather on its vocabulary ids.
    key_ids:
        Per-tuple key ids under the producing edge's key vocabulary
        (numpy ``int64``), attached by a vectorized edge whose router
        is deterministic (one vocabulary for the stream) so a consumer
        counting the same key never re-extracts it.
    interned:
        ``{vocabulary: ids}``: the key ids of a field that a later edge
        routes these same values on, interned into that edge's
        vocabulary by the edge that sized the batch (which walked the
        field to size it) and forwarded with the values, so the later
        edge routes by them without walking the field again. Empty
        until such an edge sizes the batch.
    """

    __slots__ = (
        "values",
        "src_instances",
        "dst_instances",
        "sizes",
        "key_ids",
        "interned",
    )

    def __init__(
        self,
        values: Sequence[tuple],
        src_instances=None,
        dst_instances=None,
        sizes=None,
        key_ids=None,
        interned=None,
    ) -> None:
        self.values = values
        self.src_instances = src_instances
        self.dst_instances = dst_instances
        self.sizes = sizes
        self.key_ids = key_ids
        self.interned = {} if interned is None else interned

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"TupleBatch({len(self.values)} tuples)"


class PhysicalOperator:
    """One node of a compiled physical plan.

    Lifecycle (enforced by :class:`PhysicalPlan`):

    1. upstream pushes batches via :meth:`add_input` (``input_index``
       identifies which input stream, in ``input_names`` order), which
       returns the operator's output batch for it, or None;
    2. upstream exhaustion arrives via :meth:`input_done`;
    3. once every input is done, :attr:`completed` flips true.

    Subclasses implement :meth:`_process` (consume one input batch,
    return zero or one output batch).
    """

    def __init__(self, name: str, input_names: Sequence[str]) -> None:
        self.name = name
        self.input_names = list(input_names)
        self.stats = OpStats()
        self._inputs_done = [False] * len(self.input_names)

    def add_input(
        self, batch: TupleBatch, input_index: int = 0
    ) -> Optional[TupleBatch]:
        """Accept one input batch from upstream ``input_index``; what
        the operator emitted for it, or None."""
        if self._inputs_done and self._inputs_done[input_index]:
            raise DeploymentError(
                f"operator {self.name!r} got a batch on input "
                f"{input_index} after input_done"
            )
        stats = self.stats
        stats.batches_in += 1
        stats.tuples_in += len(batch)
        start = time.perf_counter()
        out = self._process(batch, input_index)
        stats.busy_s += time.perf_counter() - start
        if out is not None:
            stats.batches_out += 1
            stats.tuples_out += len(out)
        return out

    def input_done(self, input_index: int = 0) -> None:
        """Upstream ``input_index`` will push no more batches."""
        self._inputs_done[input_index] = True

    @property
    def completed(self) -> bool:
        """Every input is done."""
        return all(self._inputs_done)

    # -- subclass hook --------------------------------------------------

    def _process(
        self, batch: TupleBatch, input_index: int
    ) -> Optional[TupleBatch]:
        raise NotImplementedError


class SourceOperator(PhysicalOperator):
    """A physical operator with no inputs that generates batches.

    Subclasses implement :meth:`_poll`, returning the next output batch
    or ``None`` when dry; a source is :attr:`completed` once dry. The
    plan driver polls sources until then, and cascades ``input_done``
    downstream.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name, input_names=())
        self._dry = False

    def poll(self) -> Optional[TupleBatch]:
        """Produce the next batch, or None once the source is dry."""
        if self._dry:
            return None
        start = time.perf_counter()
        batch = self._poll()
        self.stats.busy_s += time.perf_counter() - start
        if batch is None:
            self._dry = True
            return None
        self.stats.batches_out += 1
        self.stats.tuples_out += len(batch)
        return batch

    @property
    def completed(self) -> bool:
        return self._dry

    def _poll(self) -> Optional[TupleBatch]:
        raise NotImplementedError

    def _process(self, batch: TupleBatch, input_index: int) -> None:
        raise DeploymentError(f"source {self.name!r} takes no input")


class SpoutSource(SourceOperator):
    """Some (or all) instances of one logical spout behind one physical
    source: cycles them, producing one single-instance batch per poll.

    ``placement`` maps each hosted instance to its server. A batch
    names its instance in ``src_instances``.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[], object],
        parallelism: int,
        placement: Dict[int, int],
        batch_size: int,
    ) -> None:
        super().__init__(name)
        self.batch_size = batch_size
        self._spouts: Dict[int, Spout] = {}
        self._iters: Dict[int, Any] = {}
        self._contexts: Dict[int, OperatorContext] = {}
        self._live: List[int] = []
        self._cursor = 0
        for instance, server in sorted(placement.items()):
            operator = factory()
            if not isinstance(operator, Spout):
                raise DeploymentError(
                    f"factory of spout {name!r} returned "
                    f"{type(operator).__name__}, not a Spout"
                )
            context = OperatorContext(
                name, instance, parallelism, server, lambda: 0.0
            )
            operator.open(context)
            self._spouts[instance] = operator
            self._contexts[instance] = context
            # Fast path: drain an IteratorSpout's iterator directly
            # instead of one next_tuple call per tuple.
            self._iters[instance] = (
                operator._iterator
                if isinstance(operator, IteratorSpout)
                else None
            )
            self._live.append(instance)

    def _poll(self) -> Optional[TupleBatch]:
        while self._live:
            slot = self._cursor % len(self._live)
            instance = self._live[slot]
            values = self._pull(instance)
            if values:
                self._cursor = slot + 1
                return self._make_batch(instance, values)
            self._live.pop(slot)
            if self._live:
                self._cursor = slot % len(self._live)
        return None

    def _pull(self, instance: int) -> List[tuple]:
        limit = self.batch_size
        iterator = self._iters[instance]
        if iterator is not None:
            # tuple(): what ``emit`` does to every row on the DES, so
            # a spout yielding lists hands tuples downstream here too
            # (``emit_many`` forwards rows unconverted).
            return list(map(tuple, islice(iterator, limit)))
        values: List[tuple] = []
        spout = self._spouts[instance]
        context = self._contexts[instance]
        while len(values) < limit:
            if spout.finished or not spout.next_tuple(context):
                break
            values.extend(context._drain())
        return values

    def _make_batch(self, instance: int, values: List[tuple]) -> TupleBatch:
        import numpy as np

        return TupleBatch(
            values,
            src_instances=np.full(len(values), instance, dtype=np.int64),
        )


class HostedBolt(PhysicalOperator):
    """Some (or all) instances of one logical bolt behind one physical
    operator — the only place a batch backend runs real bolt objects.

    Placement is the round-robin of every backend (:func:`placement`).
    With ``server`` given, only that
    server's instances are hosted (a multiprocess worker's shard);
    without, all of them (the vectorized backend). Input batches carry
    per-tuple ``dst_instances``: each hosted instance takes its tuples,
    in batch order, through one ``Bolt.process_batch`` call, and the
    emissions leave as one output batch grouped by emitting instance.
    Operator state stays the real bolts' ``dict``.
    """

    def __init__(
        self,
        name: str,
        input_names: Sequence[str],
        factory: Callable[[], object],
        parallelism: int,
        num_servers: int,
        header_bytes: int,
        server: Optional[int] = None,
    ) -> None:
        super().__init__(name, input_names)
        self._factory = factory
        self._num_servers = num_servers
        self._header = header_bytes
        self._server = server
        self.operators: Dict[int, Bolt] = {}
        self.contexts: Dict[int, OperatorContext] = {}
        #: tuples taken so far, per hosted instance
        self.received: Dict[int, int] = {}
        #: per input, the owner rule before an open swap (:meth:`hold`)
        self._owner_before: Optional[List] = None
        #: ``(input_index, batch)`` waiting for their state, in order
        self._held: List[Tuple[int, TupleBatch]] = []
        #: tuples held so far
        self.held_tuples = 0
        self.resize(parallelism)

    def resize(self, parallelism: int) -> None:
        """Adopt width ``parallelism`` (the DES's ``set_parallelism``:
        ``num_instances`` stays truthful), spawning the hosted instances
        that are new. Instances a scale-in retires stay hosted, empty
        once :meth:`migrate` has moved their state to the survivors."""
        for context in self.contexts.values():
            context.num_instances = parallelism
        for instance in range(parallelism):
            server = placement(instance, self._num_servers)
            hosted_here = self._server is None or self._server == server
            if instance in self.operators or not hosted_here:
                continue
            operator = self._factory()
            if not isinstance(operator, Bolt):
                raise DeploymentError(
                    f"factory of bolt {self.name!r} returned "
                    f"{type(operator).__name__}, not a Bolt"
                )
            context = OperatorContext(
                self.name, instance, parallelism, server, lambda: 0.0,
                self._header,
            )
            operator.open(context)
            self.operators[instance] = operator
            self.contexts[instance] = context
            self.received[instance] = 0

    def _process(
        self, batch: TupleBatch, input_index: int
    ) -> Optional[TupleBatch]:
        # Imported here, not at module top: ``repro.engine`` imports
        # this module and must load without numpy (only the batch
        # backends, which hand in numpy ``dst_instances``, need it).
        import numpy as np

        if self._owner_before is not None:
            batch = self._hold_back(batch, input_index)
        dst = batch.dst_instances
        out_values: List[tuple] = []
        out_src = []
        # bincount, not unique: instances are small non-negative ints,
        # and no sort is needed to find which of them occur. Plain
        # ints: numpy integers as dict keys are several times slower
        # to hash.
        instances = np.flatnonzero(np.bincount(dst)).tolist()
        for instance in instances:
            operator = self.operators.get(instance)
            if operator is None:
                raise DeploymentError(
                    f"{self.name}[{instance}] got a tuple but is not "
                    f"hosted here (server {self._server})"
                )
            mine = (
                batch.values
                if len(instances) == 1
                else list(compress(batch.values, (dst == instance).tolist()))
            )
            context = self.contexts[instance]
            operator.process_batch(mine, context)
            self.received[instance] += len(mine)
            emitted = context._drain()
            if emitted:
                out_values.extend(emitted)
                out_src.append(
                    np.full(len(emitted), instance, dtype=np.int64)
                )
        if not out_values:
            return None
        return TupleBatch(out_values, src_instances=np.concatenate(out_src))

    # -- the hold: tuples sent ahead of their state ---------------------

    def hold(self, owner_before: List) -> None:
        """Until :meth:`release`, hold every tuple whose key another
        instance owned before the swap (``owner_before``, per input: a
        ``Router.owner_rule`` or None): the new config sent it
        ahead of its state."""
        self._owner_before = owner_before

    def _hold_back(self, batch: TupleBatch, input_index: int) -> TupleBatch:
        """What of ``batch`` may run now; the rest is held."""
        rule = self._owner_before[input_index]
        if rule is None:
            return batch
        dst = batch.dst_instances
        moved = rule(batch.values) != dst
        held, kept = (
            TupleBatch(
                list(compress(batch.values, mask.tolist())),
                dst_instances=dst[mask],
            )
            for mask in (moved, ~moved)
        )
        if len(held):
            self._held.append((input_index, held))
            self.held_tuples += len(held)
        return kept

    def release(self) -> List[TupleBatch]:
        """Lift the hold: process what it held, in arrival order, and
        return the batches those emitted."""
        held, self._held, self._owner_before = self._held, [], None
        stats = self.stats
        start = time.perf_counter()
        out = [self._process(batch, index) for index, batch in held]
        stats.busy_s += time.perf_counter() - start
        out = [batch for batch in out if batch is not None]
        stats.batches_out += len(out)
        stats.tuples_out += sum(map(len, out))
        return out

    @property
    def completed(self) -> bool:
        return super().completed and not self._held

    # -- keyed state (migration + result extraction) --------------------

    def stateful_instances(self) -> Iterator[Tuple[int, StatefulBolt]]:
        for instance, operator in sorted(self.operators.items()):
            if isinstance(operator, StatefulBolt):
                yield instance, operator

    def migrate(
        self, owner_of: Callable[[Any], int]
    ) -> Dict[int, Dict[Any, Any]]:
        """Move every key's state to the instance ``owner_of`` names.

        Between hosted instances the move happens here; what belongs
        to an instance hosted elsewhere is extracted and returned,
        ``{owner: entries}``, for the caller to ship."""
        outgoing: Dict[int, Dict[Any, Any]] = {}
        for instance, operator in self.stateful_instances():
            for key in list(operator.state):
                owner = owner_of(key)
                if owner == instance:
                    continue
                entries = operator.extract_state([key])
                target = self.operators.get(owner)
                if target is None:
                    outgoing.setdefault(owner, {}).update(entries)
                else:
                    target.install_state(entries)
        return outgoing

    def state_snapshot(self) -> Dict[int, Dict[Any, Any]]:
        return {
            instance: dict(operator.state)
            for instance, operator in self.stateful_instances()
        }


class StreamRoutes:
    """One stream's routers on a batch backend, and its locality
    counters.

    The one rule for how many routers a stream gets, the DES's: a
    ``deterministic`` router (table, hash) serves every source
    instance; any other policy gets one router per source instance,
    built on first use at the stream's current width, under the
    ``stream_context`` the DES builds that instance's router with — so
    a d-choices or hybrid pick reads its own source's load counters,
    and a shuffle cursor starts at its own source's index.
    """

    def __init__(self, stream, width: int, num_servers: int) -> None:
        self.stream = stream
        #: the destination width routers are built at
        self.n = width
        self._num_servers = num_servers
        #: source instance 0's router, the only one if deterministic
        self.router = self._build(0)
        self._routers: Dict[int, Router] = {0: self.router}
        self.local_tuples = 0
        self.total_tuples = 0

    def _build(self, src_instance: int) -> Router:
        servers = self._num_servers
        return self.stream.grouping.build_router(
            stream_context(
                self.stream,
                src_instance,
                placement(src_instance, servers),
                [placement(i, servers) for i in range(self.n)],
            )
        )

    def router_of(self, src_instance: int) -> Router:
        """The router of ``src_instance``'s tuples."""
        if self.router.deterministic:
            return self.router
        router = self._routers.get(src_instance)
        if router is None:
            router = self._routers[src_instance] = self._build(src_instance)
        return router

    def route(self, values: Sequence[tuple], src_instances, ids=None):
        """``(dst, key_ids, rows)`` of a batch, as ``Router.route``.

        A deterministic router routes it whole, by ``ids`` when given
        (its keys already interned into the router's ``vocab``);
        otherwise each source instance's tuples go through that
        instance's router (``route_per_source``: a mixed-source batch
        comes back grouped by instance, ``rows`` indexing ``values``,
        and ``key_ids`` is None — the routers share no vocabulary)."""
        if self.router.deterministic:
            return self.router.route(values, ids)
        dst, rows = route_per_source(self.router_of, values, src_instances)
        return dst, None, rows

    def reconfigure(self, action) -> None:
        """Apply a scripted action to every router built so far (the
        target or a side input); later ones are built at its width."""
        for router in self._routers.values():
            action.apply(router, self.stream.name)
        if action.parallelism is not None:
            self.n = action.parallelism

    def route_counts(self) -> Dict[str, int]:
        """``table_hits`` / ``hash_fallbacks`` over every router."""
        return {
            name: sum(getattr(r, name) for r in self._routers.values())
            for name in ("table_hits", "hash_fallbacks")
        }


def keyed_state_summary(
    states: Iterable[Tuple[int, Dict[Any, Any]]],
) -> Tuple[Dict[Any, Any], Dict[Any, Tuple[int, ...]]]:
    """What a ``BackendResult`` reports of one logical operator's keyed
    state, from its ``(instance, state)`` pairs: the per-key totals
    over all instances and, per key, the (sorted) instances holding it.

    Deterministic routing gives every key one holder, so an instance's
    state merges with two ``dict.update`` calls; only the keys a second
    instance also holds (PKG / split partials) are visited one by one."""
    totals: Dict[Any, Any] = {}
    holders: Dict[Any, Tuple[int, ...]] = {}
    for instance, state in states:
        shared = totals.keys() & state.keys()
        for key in shared:
            totals[key] += state[key]
            holders[key] = tuple(sorted(holders[key] + (instance,)))
        if shared:
            state = {k: v for k, v in state.items() if k not in shared}
        totals.update(state)
        holders.update(dict.fromkeys(state, (instance,)))
    return totals, holders


class PhysicalEdge:
    """One DAG edge of a physical plan: which operator feeds which
    input slot of which consumer, under which stream name, routed by
    which :class:`StreamRoutes` (None on an edge that routes nothing).

    A backend's edge overrides the two hooks: what a produced batch
    becomes on its way to the consumer (:meth:`deliver`), and when the
    consumer has had the last of it (:meth:`producer_done`)."""

    def __init__(
        self,
        stream_name: str,
        src: PhysicalOperator,
        dst: PhysicalOperator,
        dst_input_index: int,
        routes: Optional[StreamRoutes] = None,
    ) -> None:
        self.stream_name = stream_name
        self.src = src
        self.dst = dst
        self.dst_input_index = dst_input_index
        self.routes = routes

    def deliver(self, batch: TupleBatch) -> Optional[TupleBatch]:
        """The part of ``batch``, produced by ``src``, the consumer
        takes here (routed: ``dst_instances`` filled in), or None."""
        return batch

    def producer_done(self) -> bool:
        """``src`` is done here: whether ``dst`` may be told
        ``input_done`` now. If not, the backend calls
        :meth:`PhysicalPlan.finish` once it may."""
        return True


class PhysicalPlan:
    """A compiled physical DAG plus the driver that runs it.

    The walk is deliberately simple and deterministic: each
    :meth:`step` polls every live source once and pushes each produced
    batch depth-first through its out-edges (:meth:`PhysicalEdge.deliver`
    — where routing lives), cascading ``input_done`` from the sources
    that ran dry. A backend whose batches also arrive from elsewhere (a
    multiprocess worker's inbox) hands them in with :meth:`feed` and
    :meth:`finish`. Determinism matters: cross-backend equivalence
    tests compare against the DES oracle.

    **Threading contract**: a plan is driven from one thread; operator
    state and :class:`OpStats` are mutated without locks on that
    assumption. A distributed backend (the multiprocess one) runs one
    plan *per worker* and merges their reports (:meth:`report`); it never
    shares operators between concurrently driven plans.
    """

    def __init__(
        self,
        operators: Sequence[PhysicalOperator],
        edges: Sequence[PhysicalEdge],
    ) -> None:
        self.operators = list(operators)
        self.edges = list(edges)
        self.edges_by_stream = {edge.stream_name: edge for edge in self.edges}
        self._out_edges: Dict[int, List[PhysicalEdge]] = {}
        for edge in self.edges:
            self._out_edges.setdefault(id(edge.src), []).append(edge)
        self._live = self.sources()

    def out_edges(self, op: PhysicalOperator) -> List[PhysicalEdge]:
        return self._out_edges.get(id(op), [])

    def sources(self) -> List[SourceOperator]:
        return [
            op for op in self.operators if isinstance(op, SourceOperator)
        ]

    def emitted(self) -> int:
        """Tuples the sources produced so far."""
        return sum(source.stats.tuples_out for source in self.sources())

    @property
    def completed(self) -> bool:
        return all(op.completed for op in self.operators)

    # -- the walk -------------------------------------------------------

    def _push(self, op: PhysicalOperator, batch: TupleBatch) -> None:
        """Deliver one batch ``op`` produced across all its edges."""
        for edge in self.out_edges(op):
            routed = edge.deliver(batch)
            if routed is not None:
                self.feed(edge, routed)

    def _cascade_done(self, op: PhysicalOperator) -> None:
        for edge in self.out_edges(op):
            if edge.producer_done():
                self.finish(edge)

    def feed(self, edge: PhysicalEdge, batch: TupleBatch) -> None:
        """Hand ``edge``'s consumer one routed batch, then push what it
        emits on, depth-first."""
        out = edge.dst.add_input(batch, edge.dst_input_index)
        if out is not None:
            self._push(edge.dst, out)

    def finish(self, edge: PhysicalEdge) -> None:
        """``edge`` will carry no more batches: tell its consumer, and
        cascade on if that completed it."""
        edge.dst.input_done(edge.dst_input_index)
        if edge.dst.completed:
            self._cascade_done(edge.dst)

    def step(self) -> bool:
        """Poll each live source once; whether any produced a batch."""
        live = []
        for source in self._live:
            batch = source.poll()
            if batch is None:
                self._cascade_done(source)
            else:
                self._push(source, batch)
                live.append(source)
        self._live = live
        return bool(live)

    def execute(self, on_round=None) -> None:
        """Run every source dry and complete the whole DAG.

        ``on_round(plan)`` fires after each :meth:`step`, with no batch
        in flight — the quiescent points where a backend may apply
        scripted reconfigurations (:meth:`reconfigure`) without
        splitting a batch across two routing epochs.
        """
        while self._live:
            self.step()
            if on_round is not None:
                on_round(self)
        for op in self.operators:
            if not op.completed:
                raise DeploymentError(
                    f"plan finished with operator {op.name!r} incomplete "
                    f"(missing input_done or held tuples)"
                )

    # -- scripted reconfiguration ---------------------------------------

    def reconfigure(self, action) -> Tuple[PhysicalOperator, Callable, list]:
        """Swap a ``ReconfigureAction``'s routers at a quiescent point:
        resize the consumer (when the action rescales it) and
        reconfigure the target stream's routers (every input stream's on
        a rescale). Returns the consumer, its keys' new ``owner_of`` for
        its ``migrate``, and per consumer input the owner rule before
        the swap (None where nothing changed), for its ``hold``."""
        routes = action.target_in(
            {name: edge.routes for name, edge in self.edges_by_stream.items()}
        )
        consumer = self.edges_by_stream[action.stream].dst
        owner_before: list = [None] * len(consumer.input_names)
        for edge in self.edges:
            if edge.dst is consumer and (
                edge.routes is routes or action.parallelism is not None
            ):
                owner_before[edge.dst_input_index] = (
                    edge.routes.router.owner_rule()
                )
                edge.routes.reconfigure(action)
        if action.parallelism is not None:
            consumer.resize(action.parallelism)
        return consumer, routes.router.owner_of, owner_before

    def release(self, op: PhysicalOperator) -> None:
        """Lift ``op``'s hold: process what it held, push the output on,
        and cascade if that completed it — held tuples kept it
        incomplete, and a sink's emit nothing, so completion is the
        test, not output."""
        was_completed = op.completed
        for batch in op.release():
            self._push(op, batch)
        if op.completed and not was_completed:
            self._cascade_done(op)

    # -- result ---------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """What this plan counted, as plain data (it may cross a
        process boundary); ``backends.summarize_plans`` merges them."""
        bolts = {}
        for op in self.operators:
            if isinstance(op, SourceOperator):
                continue
            in_edge = next(e for e in self.edges if e.dst is op)
            bolts[op.name] = {
                "width": in_edge.routes.n,
                "received": dict(op.received),
                "state": op.state_snapshot(),
            }
        return {
            "emitted": self.emitted(),
            "op_stats": {op.name: asdict(op.stats) for op in self.operators},
            "streams": {
                name: (edge.routes.local_tuples, edge.routes.total_tuples)
                for name, edge in self.edges_by_stream.items()
            },
            "route_counts": {
                name: edge.routes.route_counts()
                for name, edge in self.edges_by_stream.items()
                if edge.routes.router.counts_table_hits
            },
            "bolts": bolts,
        }
