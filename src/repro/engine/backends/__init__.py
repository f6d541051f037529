"""Pluggable execution backends behind the PhysicalOperator seam.

A *backend* takes the same :class:`~repro.engine.topology.Topology` a
:class:`~repro.engine.topology.TopologyBuilder` produces and runs it to
quiescence, returning a :class:`BackendResult` with identical shape
regardless of how the tuples actually moved:

``reference``
    The discrete-event simulator (:mod:`repro.engine.runner`),
    unchanged — it is the correctness oracle, and running it through
    this adapter perturbs nothing (same-seed event fingerprints stay
    byte-identical with the fast path off).

``vectorized``
    The numpy batch fast path (:mod:`repro.engine.backends.vectorized`,
    DESIGN.md §15): tuple batches packed into arrays, routing resolved
    per batch.

``multiprocess``
    Real OS processes — one worker per simulated server — connected by
    real ``multiprocessing`` queues
    (:mod:`repro.engine.backends.multiprocess`, DESIGN.md §16).
    Per-server CPU time and inter-process bytes are *measured*, not
    modeled, and land in :attr:`BackendResult.measured`.

Cross-backend equivalence — same per-key totals, same routing
decisions, locality/balance within tolerance — is the invariant class
that gates the fast path (:mod:`repro.testing.equivalence`).

Equivalence runs need *finite* streams: build topologies with a
``tuples_per_instance`` bound so both backends drain the identical
input set.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.engine.costs import DEFAULT_COSTS, CostModel
from repro.engine.metrics import load_balance
from repro.engine.physical import keyed_state_summary, merge_counts
from repro.engine.topology import Topology
from repro.errors import DeploymentError


@dataclass
class ReconfigureAction:
    """One scripted reconfiguration of a batch run.

    Applied once the total number of spout-emitted tuples reaches
    ``at_tuples`` — at the next batch boundary on the vectorized
    backend, and on the multiprocess one by each worker at its next
    quiescent point after the coordinator's RECONFIG: the named
    stream's routing table is swapped (and, when ``parallelism`` is
    set, the destination tier is rescaled to that width, every other
    input stream of it included, as the DES round resizes side inputs),
    then keyed state migrates to each key's new owner — the owner the
    DES rescale protocol settles on
    (:func:`repro.engine.grouping.key_owner`).
    """

    at_tuples: int
    stream: str
    table: Any = None
    parallelism: Optional[int] = None

    def target_in(self, streams: Mapping[str, Any]):
        """The entry of ``streams`` (stream name → a backend's routing
        object, ``router`` its source instance 0's) this action
        reconfigures, validated to be one it can be applied to."""
        try:
            target = streams[self.stream]
        except KeyError:
            raise DeploymentError(
                f"reconfigure action names unknown stream "
                f"{self.stream!r}; one of {sorted(streams)}"
            ) from None
        if not target.router.deterministic:
            raise DeploymentError(
                f"scripted reconfiguration requires a deterministic "
                f"keyed stream; {self.stream!r} is routed by "
                f"{type(target.router).__name__}"
            )
        return target

    def apply(self, router, stream_name: str) -> None:
        """Resize one router of ``stream_name``: the target takes the
        action's table, a side input keeps its own; both take the
        action's width, if it names one."""
        if stream_name == self.stream:
            width = self.parallelism or router.num_destinations
            router.resize(width, self.table)
        else:
            router.resize(self.parallelism, getattr(router, "table", None))


@dataclass
class BackendOptions:
    """Execution parameters shared by every backend."""

    #: servers in the (modeled) cluster; None = widest op parallelism
    num_servers: Optional[int] = None
    bandwidth_gbps: Optional[float] = 1.0
    latency_s: float = 50.0e-6
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    #: reference only: acker credit window
    max_pending: int = 256
    #: reference only: record the simulator event fingerprint
    fingerprint: bool = False
    #: reference only: hook called with the Deployment before start
    #: (attach managers — the rescale equivalence episode uses this)
    on_deployed: Optional[Callable] = None
    #: vectorized/multiprocess: tuples per micro-batch
    batch_size: int = 2048
    #: vectorized/multiprocess: scripted mid-run reconfigurations
    actions: List[ReconfigureAction] = field(default_factory=list)
    #: multiprocess only: wall-clock budget for the whole run; on
    #: expiry every worker is torn down and a structured error raised
    mp_timeout_s: float = 120.0
    #: multiprocess only: capacity (messages) of each worker's inbound
    #: queue — small values exercise the backpressure path
    mp_queue_maxsize: int = 64
    #: multiprocess only: test-only fault injection, e.g.
    #: ``{"kind": "crash", "server": 1, "after_tuples": 50}`` or
    #: ``{"kind": "hang", "server": 0, "after_tuples": 50}``
    mp_fault: Optional[Dict[str, Any]] = None


@dataclass
class BackendResult:
    """What a backend run produced — the cross-backend contract.

    ``per_key_totals`` and ``key_instances`` describe keyed operator
    state at quiescence: the per-key count summed over instances, and
    the sorted tuple of instances holding state for the key (a single
    instance under deterministic routing; several under split/PKG).
    """

    backend: str
    wall_s: float
    #: modeled seconds: the DES clock (reference), the busiest executor
    #: CPU or server NIC (vectorized), the busiest worker process's CPU
    #: (multiprocess)
    sim_s: float
    #: spout-emitted tuples
    tuples_emitted: int
    #: per-operator processed-tuple counts
    processed: Dict[str, int]
    #: total processed across operators / wall seconds
    tuples_per_s: float
    locality: float
    stream_locality: Dict[str, float]
    load_balance: Dict[str, float]
    #: per bolt, the tuples each instance received, over the bolt's
    #: final width on every backend: a scale-in drops the retired
    #: instances (``load_balance`` is computed over the same list)
    received: Dict[str, List[int]]
    per_key_totals: Dict[str, Dict[Any, int]]
    key_instances: Dict[str, Dict[Any, Tuple[int, ...]]]
    #: per table-routed stream ``{"table_hits", "hash_fallbacks"}``,
    #: counted per *tuple* on every backend — their sum is the number
    #: of tuples the stream's table/hash decision routed
    route_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    op_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fingerprint: Optional[int] = None
    #: backend-specific escape hatch (Deployment / compiled plan)
    handle: Any = None
    #: *measured* (not modeled) costs, populated by backends that run
    #: on real hardware resources — the multiprocess backend reports
    #: ``{"per_server": {server: {"cpu_ns", "ipc_tx_bytes",
    #: "ipc_rx_bytes", "ipc_tx_msgs", "ipc_rx_msgs", "ipc_memo_msgs",
    #: "late_imports", "timeline"}}, "cpu_ns_total", "ipc_bytes_total",
    #: "ipc_msgs_total", "timeline"}`` (timelines: mark name → seconds
    #: since the run's start, DESIGN.md §16.2). Empty for backends
    #: whose costs are modeled (reference DES, vectorized).
    measured: Dict[str, Any] = field(default_factory=dict)


def summarize_counts(
    wall_s: float,
    processed: Dict[str, int],
    stream_counts: Mapping[str, Tuple[int, int]],
    bolt_counts: Mapping[
        str, Tuple[List[int], Iterable[Tuple[int, Dict[Any, Any]]]]
    ],
) -> Dict[str, Any]:
    """The :class:`BackendResult` fields every backend derives the same
    way from its raw counts, as constructor keywords.

    ``stream_counts``: per stream ``(local, total)`` tuples;
    ``bolt_counts``: per bolt the tuples each instance received and its
    ``(instance, state)`` pairs. An operator appears in
    ``per_key_totals`` / ``key_instances`` iff it holds keyed state.
    """
    stream_locality: Dict[str, float] = {}
    local_sum = 0
    total_sum = 0
    for name, (local, total) in stream_counts.items():
        stream_locality[name] = local / total if total else 1.0
        local_sum += local
        total_sum += total
    received: Dict[str, List[int]] = {}
    balance: Dict[str, float] = {}
    per_key_totals: Dict[str, Dict[Any, int]] = {}
    key_instances: Dict[str, Dict[Any, Tuple[int, ...]]] = {}
    for op, (counts, states) in bolt_counts.items():
        received[op] = counts
        balance[op] = load_balance(counts)
        totals, holders = keyed_state_summary(states)
        if totals:
            per_key_totals[op] = totals
            key_instances[op] = holders
    return dict(
        wall_s=wall_s,
        processed=processed,
        tuples_per_s=sum(processed.values()) / wall_s if wall_s > 0 else 0.0,
        locality=local_sum / total_sum if total_sum else 1.0,
        stream_locality=stream_locality,
        load_balance=balance,
        received=received,
        per_key_totals=per_key_totals,
        key_instances=key_instances,
    )


def summarize_plans(
    topology: Topology, reports: Iterable[Dict[str, Any]], wall_s: float
) -> Dict[str, Any]:
    """The :class:`BackendResult` fields of a batch run, as constructor
    keywords, from its plans' reports (``PhysicalPlan.report``): one on
    the vectorized backend, one per worker on the multiprocess one.
    Every plan applied every scripted action, so all agree on a bolt's
    width; what retired instances received is dropped, as the DES drops
    it."""
    reports = list(reports)
    op_stats = merge_counts(report["op_stats"] for report in reports)
    bolt_counts = {}
    for op in topology.bolts:
        shards = [report["bolts"][op.name] for report in reports]
        received = [0] * shards[0]["width"]
        for shard in shards:
            for instance, count in shard["received"].items():
                if instance < len(received):
                    received[instance] += count
        states = [item for shard in shards for item in shard["state"].items()]
        bolt_counts[op.name] = (received, states)
    return dict(
        tuples_emitted=sum(report["emitted"] for report in reports),
        route_counts=merge_counts(plan["route_counts"] for plan in reports),
        op_stats=op_stats,
        **summarize_counts(
            wall_s,
            {op.name: op_stats[op.name]["tuples_in"] for op in topology.bolts},
            {
                stream.name: tuple(
                    sum(plan["streams"][stream.name][i] for plan in reports)
                    for i in (0, 1)
                )
                for stream in topology.streams
            },
            bolt_counts,
        ),
    )


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


def run_topology(
    topology: Topology,
    backend: str = "reference",
    options: Optional[BackendOptions] = None,
) -> BackendResult:
    """Run ``topology`` to quiescence on the named backend."""
    try:
        runner = _BACKENDS[backend]
    except KeyError:
        raise DeploymentError(
            f"unknown backend {backend!r}; one of {available_backends()}"
        ) from None
    try:
        module = importlib.import_module(f"{__name__}.{backend}")
    except ImportError as exc:
        if exc.name != "numpy":
            raise
        raise DeploymentError(
            f"the {backend!r} backend needs numpy, which is not "
            f"installed (pip install 'repro[batch]')"
        ) from exc
    return getattr(module, runner)(topology, options or BackendOptions())


def _default_servers(topology: Topology, options: BackendOptions) -> int:
    if options.num_servers is not None:
        return options.num_servers
    return max(op.parallelism for op in topology.operators.values())


from repro.engine.backends.reference import run_reference  # noqa: E402

#: backend -> its runner, a function of the module named after it. The
#: batch modules import numpy, so each loads when a run, or an access to
#: one of ``_BATCH_NAMES``, first asks for it: the DES and the planner
#: never load them, and a multiprocess run loads its module before it
#: forks.
_BACKENDS: Dict[str, str] = {
    "reference": "run_reference",
    "vectorized": "run_vectorized",
    "multiprocess": "run_multiprocess",
}
_BATCH_NAMES = {
    "run_vectorized": "vectorized",
    "run_multiprocess": "multiprocess",
    "MultiprocessBackendError": "multiprocess",
}


def __getattr__(name: str) -> Any:
    """A batch backend's public name, its module loaded on first use."""
    try:
        backend = _BATCH_NAMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f"{__name__}.{backend}"), name)


__all__ = [
    "BackendOptions",
    "BackendResult",
    "MultiprocessBackendError",
    "ReconfigureAction",
    "available_backends",
    "run_topology",
    "run_reference",
    "run_vectorized",
    "run_multiprocess",
]
