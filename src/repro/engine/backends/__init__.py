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

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.costs import DEFAULT_COSTS, CostModel
from repro.engine.topology import Topology
from repro.errors import DeploymentError


@dataclass
class ReconfigureAction:
    """One scripted reconfiguration of a vectorized run.

    Applied at the first batch boundary where the total number of
    spout-emitted tuples reaches ``at_tuples``: the named stream's
    routing table is swapped (and, when ``parallelism`` is set, the
    destination tier is rescaled to that width), then keyed state
    migrates to each key's new owner — the same owner math the DES
    rescale protocol settles on (``repro.core.elasticity.owner_of``).
    """

    at_tuples: int
    stream: str
    table: Any = None
    parallelism: Optional[int] = None


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
    #: vectorized/multiprocess: cap on tuples pulled per spout instance
    #: (bounds infinite sources; finite sources may end earlier)
    max_tuples_per_instance: Optional[int] = None
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
    #: modeled seconds: DES clock, or the busiest server's busy time
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
    #: "ipc_rx_bytes", "ipc_tx_msgs", "ipc_rx_msgs"}},
    #: "ipc_bytes_total", "cpu_ns_total"}``. Empty for backends whose
    #: costs are modeled (reference DES, vectorized).
    measured: Dict[str, Any] = field(default_factory=dict)


_BACKENDS: Dict[str, Callable[[Topology, BackendOptions], BackendResult]] = {}


def register_backend(
    name: str, runner: Callable[[Topology, BackendOptions], BackendResult]
) -> None:
    """Register ``runner`` under ``name`` (later wins, like RUNNERS)."""
    _BACKENDS[name] = runner


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


def get_backend(name: str):
    try:
        return _BACKENDS[name]
    except KeyError:
        raise DeploymentError(
            f"unknown backend {name!r}; one of {available_backends()}"
        ) from None


def run_topology(
    topology: Topology,
    backend: str = "reference",
    options: Optional[BackendOptions] = None,
) -> BackendResult:
    """Run ``topology`` to quiescence on the named backend."""
    return get_backend(backend)(topology, options or BackendOptions())


def _default_servers(topology: Topology, options: BackendOptions) -> int:
    if options.num_servers is not None:
        return options.num_servers
    return max(op.parallelism for op in topology.operators.values())


from repro.engine.backends.reference import run_reference  # noqa: E402
from repro.engine.backends.vectorized import run_vectorized  # noqa: E402
from repro.engine.backends.multiprocess import (  # noqa: E402
    MultiprocessBackendError,
    run_multiprocess,
)

register_backend("reference", run_reference)
register_backend("vectorized", run_vectorized)
register_backend("multiprocess", run_multiprocess)

__all__ = [
    "BackendOptions",
    "BackendResult",
    "MultiprocessBackendError",
    "ReconfigureAction",
    "available_backends",
    "get_backend",
    "register_backend",
    "run_topology",
    "run_reference",
    "run_vectorized",
    "run_multiprocess",
]
