"""Operator (PO) base classes and common implementations.

User logic subclasses :class:`Spout` or :class:`Bolt`; stateful bolts
subclass :class:`StatefulBolt`, which adds the keyed-state API the
migration protocol uses. One operator *object* is created per instance
(POI) by the factory declared in the topology.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.engine.grouping import normalize_key_fn
from repro.engine.tuples import payload_size


class OperatorContext:
    """Execution context handed to operators.

    Provides ``emit`` plus identity and clock information. The executor
    collects emissions synchronously during ``process``/``next_tuple``
    and dispatches them once the modeled service time has elapsed.
    """

    __slots__ = (
        "operator_name",
        "instance_index",
        "num_instances",
        "server_index",
        "header_bytes",
        "_now_fn",
        "_emissions",
    )

    def __init__(
        self,
        operator_name: str,
        instance_index: int,
        num_instances: int,
        server_index: int,
        now_fn: Callable[[], float],
        header_bytes: int = 0,
    ) -> None:
        self.operator_name = operator_name
        self.instance_index = instance_index
        self.num_instances = num_instances
        self.server_index = server_index
        #: modeled per-tuple header, added to the payload walk by
        #: :attr:`ShimTuple.size`
        self.header_bytes = header_bytes
        self._now_fn = now_fn
        self._emissions: List[tuple] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now_fn()

    def emit(self, values: Iterable[Any]) -> None:
        """Emit a tuple downstream (on every output stream)."""
        self._emissions.append(tuple(values))

    def emit_many(self, tuples: Iterable[tuple]) -> None:
        """Emit every element of ``tuples``, in order. Unlike
        :meth:`emit` this does not convert: the elements must already
        be value *tuples* (a batch's own values are)."""
        self._emissions.extend(tuples)

    def _drain(self) -> List[tuple]:
        emissions = self._emissions
        self._emissions = []
        return emissions


class Operator:
    """Base for all operators."""

    def open(self, context: OperatorContext) -> None:
        """Called once when the instance is deployed."""

    def close(self) -> None:
        """Called when the simulation ends."""


class Spout(Operator):
    """A stream source.

    ``next_tuple`` is invoked whenever the spout has spare pending
    credit; it should call ``context.emit`` zero or more times and
    return True if it did any work. Returning False with
    ``finished == False`` makes the executor retry after a short idle
    delay; with ``finished == True`` the spout stops for good.
    """

    @property
    def finished(self) -> bool:
        return False

    def next_tuple(self, context: OperatorContext) -> bool:
        raise NotImplementedError


class ShimTuple:
    """Value carrier handed to ``Bolt.process`` by a batch host.

    ``size`` is the *modeled* wire size (header included), computed
    only if an operator reads it — the payload walk is as expensive as
    a routing decision and most operators never look."""

    __slots__ = ("values", "root_id", "_header")

    def __init__(self, values: tuple, header_bytes: int) -> None:
        self.values = values
        self.root_id = None
        self._header = header_bytes

    @property
    def size(self) -> int:
        return payload_size(self.values) + self._header


def _definer(cls: type, name: str) -> type:
    return next(klass for klass in cls.__mro__ if name in klass.__dict__)


class Bolt(Operator):
    """A processing operator."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A batch override stands in for the ``process`` it was written
        # against. A class whose ``process`` comes from further down
        # the MRO than its ``process_batch`` (a subclass of a built-in
        # that redefines ``process`` alone) gets the default loop back.
        if not issubclass(
            _definer(cls, "process_batch"), _definer(cls, "process")
        ):
            cls.process_batch = Bolt.process_batch

    def process(self, tup, context: OperatorContext) -> None:
        raise NotImplementedError

    def process_batch(
        self, batch_values: Sequence[tuple], context: OperatorContext
    ) -> None:
        """Process the value tuples of one batch, in order — what a
        batch host (:class:`~repro.engine.physical.HostedBolt`) calls
        in place of one :meth:`process` per tuple.

        Must leave the operator and ``context`` exactly as looping
        :meth:`process` would; this default does loop it. Override it
        together with ``process`` or not at all."""
        process = self.process
        header = context.header_bytes
        for values in batch_values:
            process(ShimTuple(values, header), context)


class StatefulBolt(Bolt):
    """A bolt with keyed state, migratable by the reconfiguration
    protocol (Section 3.4 of the paper).

    State is a plain ``dict`` key → value. Subclasses use
    :meth:`state_for` / direct dict access; the protocol uses
    :meth:`extract_state` and :meth:`install_state`.
    """

    def __init__(self) -> None:
        self.state: Dict[Hashable, Any] = {}

    def state_for(self, key: Hashable, default_factory=None) -> Any:
        """Get (creating if needed) the state entry for ``key``."""
        if key not in self.state and default_factory is not None:
            self.state[key] = default_factory()
        return self.state.get(key)

    # -- migration API --------------------------------------------------

    def extract_state(self, keys: Iterable[Hashable]) -> Dict[Hashable, Any]:
        """Remove and return the state of ``keys`` (missing keys are
        skipped: a key may have been assigned but never seen)."""
        extracted: Dict[Hashable, Any] = {}
        for key in keys:
            if key in self.state:
                extracted[key] = self.state.pop(key)
        return extracted

    def install_state(self, entries: Dict[Hashable, Any]) -> None:
        """Install migrated state received from a peer instance.

        Entries are merged with :meth:`merge_state_entry` when a key is
        already present (possible when hash fallback and table routing
        overlap transiently)."""
        for key, value in entries.items():
            if key in self.state:
                self.state[key] = self.merge_state_entry(
                    key, self.state[key], value
                )
            else:
                self.state[key] = value

    def merge_state_entry(self, key: Hashable, mine: Any, theirs: Any) -> Any:
        """How to reconcile two state entries for the same key.

        Default keeps the local entry; counting bolts override this to
        add the two counters.
        """
        return mine


class CountBolt(StatefulBolt):
    """Counts occurrences of a key field, the paper's evaluation bolt.

    Parameters
    ----------
    key:
        Field index (or callable) identifying the counted key.
    forward:
        When True, the input tuple's values are re-emitted downstream
        (PO ``A`` in the evaluation); sinks use False (PO ``B``).
    """

    def __init__(self, key: int = 0, forward: bool = True) -> None:
        super().__init__()
        self._key_fn = normalize_key_fn(key)
        #: the raw key spec (index or callable) — batch backends use
        #: index equality to match the count key to a routing key
        self.key_spec = key
        self._forward = forward
        self.processed = 0

    @property
    def forwards(self) -> bool:
        """Whether processed tuples are re-emitted downstream."""
        return self._forward

    def process(self, tup, context: OperatorContext) -> None:
        key = self._key_fn(tup.values)
        self.state[key] = self.state.get(key, 0) + 1
        self.processed += 1
        if self._forward:
            context.emit(tup.values)

    def process_batch(self, batch_values, context: OperatorContext) -> None:
        state = self.state
        get = state.get
        for key in map(self._key_fn, batch_values):
            state[key] = get(key, 0) + 1
        self.processed += len(batch_values)
        if self._forward:
            context.emit_many(batch_values)

    def merge_state_entry(self, key, mine, theirs):
        return mine + theirs

    def count(self, key: Hashable) -> int:
        return self.state.get(key, 0)


class PartialCountBolt(StatefulBolt):
    """Per-instance partial counter for split-key (PKG/hybrid) streams.

    Upstream routing may spread one key over several instances, so the
    local counter is only a *partial* aggregate. Every processed tuple
    emits ``(key, delta)`` downstream; route that stream with plain
    fields grouping into a :class:`SumBolt` and the per-key totals stay
    exact regardless of how the key was split.

    Parameters
    ----------
    key:
        Field index (or callable) identifying the counted key.
    emit_every:
        Emit the accumulated delta every N observations of a key
        (1 = one delta per tuple, exact at every instant; larger values
        batch deltas and trade staleness for traffic).
    """

    def __init__(self, key: int = 0, emit_every: int = 1) -> None:
        super().__init__()
        if emit_every < 1:
            raise ValueError(f"emit_every must be >= 1, got {emit_every}")
        self._key_fn = normalize_key_fn(key)
        self._emit_every = emit_every
        self._pending: Dict[Hashable, int] = {}
        self.processed = 0

    def process(self, tup, context: OperatorContext) -> None:
        key = self._key_fn(tup.values)
        self.state[key] = self.state.get(key, 0) + 1
        self.processed += 1
        pending = self._pending.get(key, 0) + 1
        if pending >= self._emit_every:
            context.emit((key, pending))
            self._pending.pop(key, None)
        else:
            self._pending[key] = pending

    def merge_state_entry(self, key, mine, theirs):
        return mine + theirs

    def count(self, key: Hashable) -> int:
        """Local partial count for ``key`` (NOT the global total)."""
        return self.state.get(key, 0)


class SumBolt(StatefulBolt):
    """Merge stage summing ``(key, delta)`` tuples into exact totals.

    The downstream half of the PKG/hybrid split-key pattern: feed it
    the :class:`PartialCountBolt` output over a fields-grouped (or
    table-grouped) stream keyed on field 0, and ``total(key)`` is the
    exact global count even though upstream partials live on several
    instances.
    """

    def __init__(
        self, key: int = 0, value: int = 1, forward: bool = False
    ) -> None:
        super().__init__()
        self._key_and_delta = itemgetter(key, value)
        self._forward = forward
        self.processed = 0

    def process(self, tup, context: OperatorContext) -> None:
        key, delta = self._key_and_delta(tup.values)
        self.state[key] = self.state.get(key, 0) + delta
        self.processed += 1
        if self._forward:
            context.emit(tup.values)

    def process_batch(self, batch_values, context: OperatorContext) -> None:
        state = self.state
        get = state.get
        for key, delta in map(self._key_and_delta, batch_values):
            state[key] = get(key, 0) + delta
        self.processed += len(batch_values)
        if self._forward:
            context.emit_many(batch_values)

    def merge_state_entry(self, key, mine, theirs):
        return mine + theirs

    def total(self, key: Hashable) -> int:
        return self.state.get(key, 0)


class PassThroughBolt(Bolt):
    """Stateless identity bolt (used to model stateless POs)."""

    def __init__(self, transform: Optional[Callable[[tuple], tuple]] = None):
        self._transform = transform

    def process(self, tup, context: OperatorContext) -> None:
        values = tup.values
        if self._transform is not None:
            values = self._transform(values)
        context.emit(values)

    def process_batch(self, batch_values, context: OperatorContext) -> None:
        if self._transform is not None:
            batch_values = map(tuple, map(self._transform, batch_values))
        context.emit_many(batch_values)


class FunctionBolt(Bolt):
    """Stateless bolt applying ``fn(values) -> iterable of value-tuples``.

    Each element of the returned iterable is emitted as one tuple;
    return an empty iterable to drop the input.
    """

    def __init__(self, fn: Callable[[tuple], Iterable[tuple]]):
        self._fn = fn

    def process(self, tup, context: OperatorContext) -> None:
        for values in self._fn(tup.values):
            context.emit(values)

    def process_batch(self, batch_values, context: OperatorContext) -> None:
        context.emit_many(
            map(tuple, chain.from_iterable(map(self._fn, batch_values)))
        )


class IteratorSpout(Spout):
    """Spout draining a Python iterator of value-tuples.

    The iterator is created lazily at ``open`` from ``make_iterator``,
    which receives the operator context — so each instance can generate
    its own shard of the stream.
    """

    def __init__(self, make_iterator: Callable[[OperatorContext], Iterable]):
        self._make_iterator = make_iterator
        self._iterator = None
        self._finished = False
        self.emitted = 0

    def open(self, context: OperatorContext) -> None:
        self._iterator = iter(self._make_iterator(context))

    @property
    def finished(self) -> bool:
        return self._finished

    def next_tuple(self, context: OperatorContext) -> bool:
        if self._finished:
            return False
        try:
            values = next(self._iterator)
        except StopIteration:
            self._finished = True
            return False
        context.emit(values)
        self.emitted += 1
        return True
