"""Deploying topologies on clusters and running measurements.

``deploy`` builds executors and wires routers; ``run`` is the one-call
experiment driver used by the benchmarks: build, warm up, measure,
report a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.acker import Acker
from repro.engine.cluster import Cluster
from repro.engine.costs import DEFAULT_COSTS, CostModel
from repro.engine.executor import (
    BaseExecutor,
    BoltExecutor,
    OutEdge,
    SpoutExecutor,
)
from repro.engine.grouping import stream_context
from repro.engine.metrics import MetricsHub, ThroughputSampler
from repro.engine.operators import Spout
from repro.engine.physical import placement
from repro.engine.simulator import Simulator
from repro.engine.topology import Topology
from repro.errors import DeploymentError

PlacementFn = Callable[[str, int, int], int]


def round_robin_placement(num_servers: int) -> PlacementFn:
    """The paper's static placement: instance ``i`` of every operator
    runs on server ``i mod n`` — so each server hosts one instance of
    each PO."""

    def place(op_name: str, instance: int, parallelism: int) -> int:
        return placement(instance, num_servers)

    return place


def _wire_out_edge(
    src_executor: BaseExecutor, stream, destinations: List[BaseExecutor]
) -> None:
    """Give ``src_executor`` its router and out-edge for ``stream``:
    one router per (stream, source instance)."""
    context = stream_context(
        stream,
        src_executor.instance,
        src_executor.server.index,
        [e.server.index for e in destinations],
    )
    src_executor.add_out_edge(
        OutEdge(
            stream.name,
            stream.grouping.build_router(context),
            list(destinations),
            getattr(stream.grouping, "key_fn", None),
        )
    )


class Deployment:
    """A topology instantiated on a cluster."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        topology: Topology,
        executors: Dict[str, List[BaseExecutor]],
        metrics: MetricsHub,
        acker: Acker,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.topology = topology
        self.executors = executors
        self.metrics = metrics
        self.acker = acker
        #: observers called with every executor created by
        #: :meth:`spawn_instance` / removed by :meth:`retire_instance` —
        #: the seams the invariant suite and fault injector use to track
        #: an instance set that changes at runtime
        self.spawn_observers: List[Callable[[BaseExecutor], None]] = []
        self.retire_observers: List[Callable[[BaseExecutor], None]] = []
        #: the :class:`~repro.core.manager.Manager` reconfiguring this
        #: deployment (its constructor sets it); None when none is
        self.manager = None

    def executor(self, op_name: str, instance: int) -> BaseExecutor:
        return self.executors[op_name][instance]

    def instances(self, op_name: str) -> List[BaseExecutor]:
        return list(self.executors[op_name])

    def all_executors(self) -> List[BaseExecutor]:
        return [e for group in self.executors.values() for e in group]

    def spout_executors(self) -> List[SpoutExecutor]:
        return [
            e
            for e in self.all_executors()
            if isinstance(e, SpoutExecutor)
        ]

    def tuples_emitted(self) -> int:
        """Tuples the spouts have produced so far: what a scripted
        :class:`~repro.engine.backends.ReconfigureAction` counts."""
        return sum(
            spout.operator.emitted
            for spout in self.spout_executors()
            if hasattr(spout.operator, "emitted")
        )

    def start(self) -> None:
        """Start every spout's polling loop."""
        for spout in self.spout_executors():
            spout.start()

    def run_until(self, time_s: float) -> None:
        self.sim.run(until=time_s)

    def close(self) -> None:
        for executor in self.all_executors():
            executor.close()

    def placement_of(self, op_name: str) -> List[int]:
        """Server index of each instance of ``op_name``."""
        return [e.server.index for e in self.executors[op_name]]

    # ------------------------------------------------------------------
    # Elastic rescaling (online instance add/remove)
    # ------------------------------------------------------------------

    def spawn_instance(
        self, op_name: str, server, *, notify: bool = True
    ) -> BoltExecutor:
        """Create, wire and open one new instance of bolt ``op_name``
        on ``server``, with the next instance index.

        Wired as :func:`deploy` wires: one router per output stream
        (built against the *current* destination lists — a rescale
        round swaps them atomically via the protocol's edge updates)
        and the input key extractors. ``notify=False`` defers the spawn
        observers so the caller can finish installing control handlers
        first (see :meth:`notify_spawned`).
        """
        op = self.topology.operator(op_name)
        if op.is_spout:
            raise DeploymentError(
                f"cannot spawn a spout instance of {op_name!r}: spout "
                f"sharding is fixed at deployment"
            )
        group = self.executors[op_name]
        template = group[0]
        instance = len(group)
        operator = op.factory()
        executor = BoltExecutor(
            sim=self.sim,
            cluster=self.cluster,
            op_name=op_name,
            instance=instance,
            parallelism=template.parallelism,
            server=server,
            operator=operator,
            costs=template.costs,
            metrics=self.metrics,
            acker=self.acker,
        )
        group.append(executor)
        for stream in self.topology.outputs_of(op_name):
            _wire_out_edge(executor, stream, self.executors[stream.dst])
        for stream in self.topology.inputs_of(op_name):
            key_fn = getattr(stream.grouping, "key_fn", None)
            if key_fn is not None:
                executor.in_key_fns[stream.src] = key_fn
        operator.open(executor.make_context())
        if notify:
            self.notify_spawned(executor)
        return executor

    def notify_spawned(self, executor: BaseExecutor) -> None:
        """Fire the spawn observers for ``executor`` (separately
        callable so a manager can attach the reconfiguration agent
        before observers wrap the control handler)."""
        for observer in self.spawn_observers:
            observer(executor)

    def retire_instance(self, op_name: str) -> BaseExecutor:
        """Remove and close the highest-index instance of ``op_name``.
        Retire observers run *before* close so they can audit the
        instance's final state (e.g. assert it drained cleanly)."""
        group = self.executors[op_name]
        if len(group) <= 1:
            raise DeploymentError(
                f"cannot retire the last instance of {op_name!r}"
            )
        executor = group.pop()
        for observer in self.retire_observers:
            observer(executor)
        executor.close()
        return executor


def deploy(
    sim: Simulator,
    cluster: Cluster,
    topology: Topology,
    costs: CostModel = DEFAULT_COSTS,
    placement: Optional[PlacementFn] = None,
    max_pending: int = 256,
    metrics: Optional[MetricsHub] = None,
    message_timeout_s: Optional[float] = None,
) -> Deployment:
    """Instantiate ``topology`` on ``cluster``.

    Raises
    ------
    DeploymentError
        If the placement function returns an invalid server.
    """
    if placement is None:
        placement = round_robin_placement(cluster.num_servers)
    if metrics is None:
        metrics = MetricsHub()
    acker = Acker(
        sim,
        costs.ack_delay_s,
        latency_stats=metrics.latency,
        timeout_s=message_timeout_s,
    )

    executors: Dict[str, List[BaseExecutor]] = {}
    for op in topology.operators.values():
        group: List[BaseExecutor] = []
        for instance in range(op.parallelism):
            server_index = placement(op.name, instance, op.parallelism)
            if not 0 <= server_index < cluster.num_servers:
                raise DeploymentError(
                    f"placement of {op.name}[{instance}] on server "
                    f"{server_index} outside cluster of "
                    f"{cluster.num_servers}"
                )
            server = cluster.server(server_index)
            operator = op.factory()
            common = dict(
                sim=sim,
                cluster=cluster,
                op_name=op.name,
                instance=instance,
                parallelism=op.parallelism,
                server=server,
                operator=operator,
                costs=costs,
                metrics=metrics,
                acker=acker,
            )
            if op.is_spout:
                if not isinstance(operator, Spout):
                    raise DeploymentError(
                        f"factory of spout {op.name!r} returned "
                        f"{type(operator).__name__}, not a Spout"
                    )
                executor: BaseExecutor = SpoutExecutor(
                    max_pending=max_pending, **common
                )
            else:
                executor = BoltExecutor(**common)
            group.append(executor)
        executors[op.name] = group

    for stream in topology.streams:
        destinations = executors[stream.dst]
        for src_executor in executors[stream.src]:
            _wire_out_edge(src_executor, stream, destinations)
        key_fn = getattr(stream.grouping, "key_fn", None)
        if key_fn is not None:
            for dst_executor in destinations:
                dst_executor.in_key_fns[stream.src] = key_fn

    deployment = Deployment(sim, cluster, topology, executors, metrics, acker)
    for executor in deployment.all_executors():
        executor.operator.open(executor.make_context())
    return deployment


@dataclass
class RunConfig:
    """Parameters of a measurement run."""

    duration_s: float = 10.0
    warmup_s: float = 2.0
    num_servers: int = 2
    bandwidth_gbps: Optional[float] = 10.0
    latency_s: float = 50.0e-6
    max_pending: int = 256
    sample_interval_s: Optional[float] = None
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    placement: Optional[PlacementFn] = None


@dataclass
class RunResult:
    """Outcome of a measurement run."""

    #: tuples/second at the primary sink, measured after warmup.
    throughput: float
    #: throughput per sink operator.
    sink_throughput: Dict[str, float]
    #: post-warmup locality per stream (fraction of local deliveries).
    stream_locality: Dict[str, float]
    #: post-warmup overall locality across all streams.
    locality: float
    #: load balance (max/mean received) per operator.
    load_balance: Dict[str, float]
    #: (time, rate) samples at the primary sink, if sampling enabled.
    samples: List[Tuple[float, float]]
    #: post-warmup end-to-end latency: (mean, p50, p99, max) seconds.
    latency_mean: float
    latency_p50: float
    latency_p99: float
    latency_max: float
    #: the deployment, for deeper inspection.
    deployment: Deployment
    #: simulated seconds actually measured.
    measured_s: float


def run(
    topology: Topology,
    config: Optional[RunConfig] = None,
    on_deployed: Optional[Callable[[Deployment], None]] = None,
) -> RunResult:
    """Build, warm up and measure a topology.

    Parameters
    ----------
    on_deployed:
        Optional hook called after deployment, before the clock starts —
        used to attach managers/instrumentation (see repro.core).
    """
    config = config or RunConfig()
    if config.duration_s <= config.warmup_s:
        raise DeploymentError(
            f"duration {config.duration_s}s must exceed warmup "
            f"{config.warmup_s}s"
        )
    sim = Simulator()
    cluster = Cluster(
        sim,
        config.num_servers,
        bandwidth_gbps=config.bandwidth_gbps,
        latency_s=config.latency_s,
    )
    deployment = deploy(
        sim,
        cluster,
        topology,
        costs=config.costs,
        placement=config.placement,
        max_pending=config.max_pending,
    )
    if on_deployed is not None:
        on_deployed(deployment)

    sinks = topology.sinks()
    if not sinks:
        raise DeploymentError("topology has no sink operator to measure")
    primary_sink = sinks[-1]

    sampler = None
    if config.sample_interval_s is not None:
        sampler = ThroughputSampler(
            sim, deployment.metrics, primary_sink, config.sample_interval_s
        )
        sampler.start()

    deployment.start()
    deployment.run_until(config.warmup_s)
    snapshot = deployment.metrics.snapshot()
    deployment.metrics.latency.reset()
    deployment.run_until(config.duration_s)
    deployment.close()

    measured = config.duration_s - config.warmup_s
    metrics = deployment.metrics
    sink_throughput = {
        sink: (metrics.processed_total(sink) - snapshot.processed_total(sink))
        / measured
        for sink in sinks
    }

    stream_locality = {}
    local_sum = 0
    total_sum = 0
    for name, counters in metrics.streams.items():
        base = snapshot.streams.get(name)
        delta = counters.minus(base) if base is not None else counters
        stream_locality[name] = delta.locality()
        local_sum += delta.local_tuples
        total_sum += delta.total_tuples

    load_balance = {
        op.name: metrics.load_balance(op.name, op.parallelism)
        for op in topology.bolts
    }

    return RunResult(
        throughput=sink_throughput[primary_sink],
        sink_throughput=sink_throughput,
        stream_locality=stream_locality,
        locality=(local_sum / total_sum) if total_sum else 1.0,
        load_balance=load_balance,
        samples=list(sampler.samples) if sampler else [],
        latency_mean=metrics.latency.mean,
        latency_p50=metrics.latency.percentile(0.50),
        latency_p99=metrics.latency.percentile(0.99),
        latency_max=metrics.latency.max,
        deployment=deployment,
        measured_s=measured,
    )
