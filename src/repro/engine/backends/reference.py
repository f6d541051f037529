"""The reference backend: the discrete-event simulator, unchanged.

This adapter deploys the topology exactly as :func:`repro.engine.
runner.deploy` always has and drains the simulator — it adds *no* code
to the DES hot path, so same-seed event fingerprints are byte-identical
to a direct ``deploy``/``run`` (a property the equivalence suite pins).
Its job is to express a finished DES run in the cross-backend
:class:`~repro.engine.backends.BackendResult` vocabulary: per-key
state totals, key placements, locality, balance.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.engine.cluster import Cluster
from repro.engine.grouping import TableRouter
from repro.engine.operators import StatefulBolt
from repro.engine.physical import keyed_state_summary
from repro.engine.runner import deploy
from repro.engine.simulator import Simulator
from repro.engine.topology import Topology


def run_reference(topology: Topology, options) -> "BackendResult":
    from repro.engine.backends import BackendResult, _default_servers

    num_servers = _default_servers(topology, options)
    sim = Simulator()
    if options.fingerprint:
        sim.enable_fingerprint()
    cluster = Cluster(
        sim,
        num_servers,
        bandwidth_gbps=options.bandwidth_gbps,
        latency_s=options.latency_s,
    )
    deployment = deploy(
        sim,
        cluster,
        topology,
        costs=options.costs,
        max_pending=options.max_pending,
    )
    if options.on_deployed is not None:
        options.on_deployed(deployment)
    deployment.start()
    start = time.perf_counter()
    sim.run()  # drain: finite spouts finish, queues empty
    wall = time.perf_counter() - start

    metrics = deployment.metrics
    processed = {
        name: metrics.processed_total(name)
        for name in topology.operators
        if not topology.operator(name).is_spout
    }
    emitted = sum(
        spout.operator.emitted
        for spout in deployment.spout_executors()
        if hasattr(spout.operator, "emitted")
    )

    stream_locality: Dict[str, float] = {}
    local_sum = 0
    total_sum = 0
    for name, counters in metrics.streams.items():
        stream_locality[name] = counters.locality()
        local_sum += counters.local_tuples
        total_sum += counters.total_tuples

    load_balance: Dict[str, float] = {}
    received: Dict[str, List[int]] = {}
    per_key_totals: Dict[str, Dict[Any, int]] = {}
    key_instances: Dict[str, Dict[Any, Tuple[int, ...]]] = {}
    for op in topology.bolts:
        group = deployment.executors[op.name]
        parallelism = len(group)
        load_balance[op.name] = metrics.load_balance(op.name, parallelism)
        received[op.name] = metrics.received_per_instance(
            op.name, parallelism
        )
        if isinstance(group[0].operator, StatefulBolt):
            per_key_totals[op.name], key_instances[op.name] = (
                keyed_state_summary(
                    (executor.instance, executor.operator.state)
                    for executor in group
                )
            )

    route_counts: Dict[str, Dict[str, int]] = {}
    for executor in deployment.all_executors():
        for edge in executor.out_edges:
            if isinstance(edge.router, TableRouter):
                counts = route_counts.setdefault(
                    edge.stream_name, {"table_hits": 0, "hash_fallbacks": 0}
                )
                counts["table_hits"] += edge.router.table_hits
                counts["hash_fallbacks"] += edge.router.hash_fallbacks

    total_processed = sum(processed.values())
    return BackendResult(
        backend="reference",
        wall_s=wall,
        sim_s=sim.now,
        tuples_emitted=emitted,
        processed=processed,
        tuples_per_s=total_processed / wall if wall > 0 else 0.0,
        locality=(local_sum / total_sum) if total_sum else 1.0,
        stream_locality=stream_locality,
        load_balance=load_balance,
        received=received,
        per_key_totals=per_key_totals,
        key_instances=key_instances,
        route_counts=route_counts,
        op_stats={},
        fingerprint=sim.fingerprint if options.fingerprint else None,
        handle=deployment,
    )
