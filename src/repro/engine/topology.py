"""Topology definition: the application DAG.

A topology declares named operators (spouts and bolts), their
parallelism, and the streams between them, each labeled with a routing
policy (grouping). The builder validates the result: unique names,
acyclicity, spouts without inputs, bolts with at least one input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.engine.grouping import Grouping
from repro.engine.operators import CountBolt, IteratorSpout
from repro.errors import TopologyError

SPOUT = "spout"
BOLT = "bolt"


@dataclass
class OperatorSpec:
    """Declaration of one operator (PO)."""

    name: str
    kind: str  # SPOUT or BOLT
    factory: Callable[[], object]
    parallelism: int

    @property
    def is_spout(self) -> bool:
        return self.kind == SPOUT


@dataclass
class StreamSpec:
    """Declaration of one stream (DAG edge) with its routing policy."""

    src: str
    dst: str
    grouping: Grouping
    #: optional explicit stream name; defaults to ``"src->dst"``
    label: Optional[str] = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else f"{self.src}->{self.dst}"


@dataclass
class Topology:
    """A validated application DAG."""

    operators: Dict[str, OperatorSpec]
    streams: List[StreamSpec]
    _order: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self._order:
            self._order = self._topological_order()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def spouts(self) -> List[OperatorSpec]:
        return [op for op in self.operators.values() if op.is_spout]

    @property
    def bolts(self) -> List[OperatorSpec]:
        return [op for op in self.operators.values() if not op.is_spout]

    def operator(self, name: str) -> OperatorSpec:
        try:
            return self.operators[name]
        except KeyError:
            raise TopologyError(f"unknown operator {name!r}") from None

    def inputs_of(self, name: str) -> List[StreamSpec]:
        return [s for s in self.streams if s.dst == name]

    def outputs_of(self, name: str) -> List[StreamSpec]:
        return [s for s in self.streams if s.src == name]

    def stream(self, src: str, dst: str) -> StreamSpec:
        for spec in self.streams:
            if spec.src == src and spec.dst == dst:
                return spec
        raise TopologyError(f"no stream {src!r} -> {dst!r}")

    def topological_order(self) -> List[str]:
        """Operator names in DAG order (spouts first)."""
        return list(self._order)

    def sinks(self) -> List[str]:
        """Operators with no outgoing streams."""
        sources = {s.src for s in self.streams}
        return [name for name in self._order if name not in sources]

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def _topological_order(self) -> List[str]:
        indegree = {name: 0 for name in self.operators}
        for stream in self.streams:
            indegree[stream.dst] += 1
        frontier = [name for name, deg in indegree.items() if deg == 0]
        # Keep declaration order deterministic.
        frontier.sort(key=list(self.operators).index)
        order: List[str] = []
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            for stream in self.outputs_of(name):
                indegree[stream.dst] -= 1
                if indegree[stream.dst] == 0:
                    frontier.append(stream.dst)
        if len(order) != len(self.operators):
            raise TopologyError("topology contains a cycle")
        return order


class TopologyBuilder:
    """Fluent builder for :class:`Topology`.

    Example
    -------
    >>> builder = TopologyBuilder()
    >>> builder.spout("source", lambda: MySpout(), parallelism=2)
    >>> builder.bolt(
    ...     "count",
    ...     lambda: CountBolt(0),
    ...     parallelism=2,
    ...     inputs={"source": FieldsGrouping(0)},
    ... )
    >>> topology = builder.build()
    """

    def __init__(self) -> None:
        self._operators: Dict[str, OperatorSpec] = {}
        self._streams: List[StreamSpec] = []

    def spout(
        self,
        name: str,
        factory: Callable[[], object],
        parallelism: int = 1,
    ) -> "TopologyBuilder":
        """Declare a spout (stream source)."""
        self._add_operator(name, SPOUT, factory, parallelism)
        return self

    def bolt(
        self,
        name: str,
        factory: Callable[[], object],
        parallelism: int = 1,
        inputs: Optional[Mapping[str, Grouping]] = None,
    ) -> "TopologyBuilder":
        """Declare a bolt and the streams feeding it.

        Parameters
        ----------
        inputs:
            Mapping from upstream operator name to the grouping used on
            that stream.
        """
        self._add_operator(name, BOLT, factory, parallelism)
        for src, grouping in (inputs or {}).items():
            self.stream(src, name, grouping)
        return self

    def stream(
        self,
        src: str,
        dst: str,
        grouping: Grouping,
        name: Optional[str] = None,
    ) -> "TopologyBuilder":
        """Declare a stream between two already-declared operators.

        ``name`` optionally overrides the default ``"src->dst"`` label;
        nothing in the system may rely on parsing that default form.
        """
        if not isinstance(grouping, Grouping):
            raise TopologyError(
                f"grouping for {src!r}->{dst!r} must be a Grouping, "
                f"got {type(grouping).__name__}"
            )
        for existing in self._streams:
            if existing.src == src and existing.dst == dst:
                raise TopologyError(f"duplicate stream {src!r} -> {dst!r}")
        spec = StreamSpec(src, dst, grouping, label=name)
        for existing in self._streams:
            if existing.name == spec.name:
                raise TopologyError(f"duplicate stream name {spec.name!r}")
        self._streams.append(spec)
        return self

    def build(self) -> Topology:
        """Validate and return the topology."""
        if not self._operators:
            raise TopologyError("topology has no operators")
        names = set(self._operators)
        for stream in self._streams:
            for endpoint in (stream.src, stream.dst):
                if endpoint not in names:
                    raise TopologyError(
                        f"stream references unknown operator {endpoint!r}"
                    )
            if self._operators[stream.dst].is_spout:
                raise TopologyError(
                    f"spout {stream.dst!r} cannot receive a stream"
                )
        has_input = {s.dst for s in self._streams}
        for op in self._operators.values():
            if not op.is_spout and op.name not in has_input:
                raise TopologyError(f"bolt {op.name!r} has no input stream")
        if not any(op.is_spout for op in self._operators.values()):
            raise TopologyError("topology needs at least one spout")
        topology = Topology(dict(self._operators), list(self._streams))
        return topology

    def _add_operator(
        self, name: str, kind: str, factory: Callable, parallelism: int
    ) -> None:
        if name in self._operators:
            raise TopologyError(f"duplicate operator name {name!r}")
        if not callable(factory):
            raise TopologyError(f"factory for {name!r} must be callable")
        if parallelism < 1:
            raise TopologyError(
                f"parallelism of {name!r} must be >= 1, got {parallelism}"
            )
        self._operators[name] = OperatorSpec(name, kind, factory, parallelism)


def count_chain(
    source: Callable,
    parallelism: int,
    groupings: Sequence[Grouping],
    spouts: Optional[int] = None,
    names: Sequence[str] = "ABCDEFGH",
) -> Topology:
    """The paper's evaluation application (Section 4.1): spout ``S``
    over ``source`` (an :class:`IteratorSpout` argument) feeding a
    chain of counting bolts, one per entry of ``groupings``. Hop *i* is
    named ``names[i]``, takes its input under ``groupings[i]``, counts
    field *i*, and forwards its tuples unless it is the last. ``S``
    has ``spouts`` instances (default ``parallelism``, like the bolts).
    """
    builder = TopologyBuilder()
    builder.spout(
        "S", lambda: IteratorSpout(source), parallelism=spouts or parallelism
    )
    upstream, last = "S", len(groupings) - 1
    for hop, (name, grouping) in enumerate(zip(names, groupings)):
        builder.bolt(
            name,
            lambda hop=hop: CountBolt(hop, forward=hop < last),
            parallelism=parallelism,
            inputs={upstream: grouping},
        )
        upstream = name
    return builder.build()
