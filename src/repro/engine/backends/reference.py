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
from typing import Dict

from repro.engine.cluster import Cluster
from repro.engine.operators import StatefulBolt
from repro.engine.runner import deploy
from repro.engine.simulator import Simulator
from repro.engine.topology import Topology


def run_reference(topology: Topology, options) -> "BackendResult":
    from repro.engine.backends import (
        BackendResult,
        _default_servers,
        summarize_counts,
    )

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
    bolt_counts = {}
    for op in topology.bolts:
        group = deployment.executors[op.name]
        bolt_counts[op.name] = (
            metrics.received_per_instance(op.name, len(group)),
            [
                (executor.instance, executor.operator.state)
                for executor in group
                if isinstance(executor.operator, StatefulBolt)
            ],
        )

    route_counts: Dict[str, Dict[str, int]] = {}
    for executor in deployment.all_executors():
        for edge in executor.out_edges:
            if edge.router.counts_table_hits:
                counts = route_counts.setdefault(
                    edge.stream_name, {"table_hits": 0, "hash_fallbacks": 0}
                )
                counts["table_hits"] += edge.router.table_hits
                counts["hash_fallbacks"] += edge.router.hash_fallbacks

    return BackendResult(
        backend="reference",
        sim_s=sim.now,
        tuples_emitted=deployment.tuples_emitted(),
        route_counts=route_counts,
        fingerprint=sim.fingerprint if options.fingerprint else None,
        handle=deployment,
        **summarize_counts(
            wall,
            {
                op.name: metrics.processed_total(op.name)
                for op in topology.bolts
            },
            {
                name: (counters.local_tuples, counters.total_tuples)
                for name, counters in metrics.streams.items()
            },
            bolt_counts,
        ),
    )
