"""The traced run: per-layer numbers for one workload.

Three sources, all driven from here so that no file of the program
changes: *counts* read off the program's own result objects,
*attribution* (one cycle under ``cProfile``, self time summed per
``repro`` module; in-process workloads only) and *probes* (a layer's
public functions called directly with the workload's own input and
timed per call). A metric a workload does not exercise reads 0.

End-to-end numbers never come from here: ``cProfile`` costs every
Python call but no native work, which shifts the proportions.
``trace_overhead_x`` says by how much.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Tuple

from spans import SpanRecorder
from workloads import SKETCH_CAPACITY, FlickrEngine

from repro.core.assignment import (
    compute_assignment,
    expected_locality,
    plan_migrations,
)
from repro.core import CompactRoutingTable, KeyGraph, TableDelta
from repro.core.routing_table import RoutingTable
from repro.core.table_delta import snapshot_wire_bytes
from repro.engine.grouping import (
    RouterContext,
    TableFieldsGrouping,
    stable_hash,
)
from repro.engine.simulator import Simulator
from repro.engine.tuples import payload_size
from repro.spacesaving import SpaceSaving

#: ``self_frac.<layer>`` -> the ``repro.*`` modules summed into it
ATTRIBUTED = {
    "engine.simulator": ("engine.simulator",),
    "engine.executor": ("engine.executor",),
    "engine.acker": ("engine.acker",),
    "engine.metrics": ("engine.metrics",),
    "engine.network": ("engine.network", "engine.cluster"),
    "engine.operators": ("engine.operators",),
    "engine.grouping": ("engine.grouping",),
    "engine.tuples": ("engine.tuples",),
    "engine.backends.vectorized": ("engine.backends.vectorized",),
    "engine.physical": ("engine.physical",),
    "partitioning.coarsen": ("partitioning.coarsen", "partitioning.matching"),
    "partitioning.initial": ("partitioning.initial",),
    "partitioning.refine": ("partitioning.refine", "partitioning.kway_refine"),
    "partitioning.graph": ("partitioning.graph",),
    "core.manager": ("core.manager",),
    "core.reconfiguration": ("core.reconfiguration",),
    "spacesaving": ("spacesaving", "core.instrumentation"),
    "observability": ("observability",),
}
#: pairs fed to the control-plane probes (one partition of them ~1 s)
PROBE_PAIRS = 20_000
PROBE_EVENTS = 200_000


def per_call(fn: Callable[[Any], Any], items: List[Any]) -> float:
    """Seconds per call of ``fn`` over ``items``."""
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) / max(1, len(items))


def clocked(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------


def engine_counts(outcome, wall_s: float) -> Dict[str, float]:
    result, manager = outcome.detail
    tuples = outcome.tuples
    out: Dict[str, float] = {}
    if result.backend == "reference":
        deployment = result.handle
        streams = deployment.metrics.streams.values()
        out["simulator.events_per_tuple"] = (
            deployment.sim.events_executed / tuples
        )
        out["network.remote_bytes_per_tuple"] = (
            sum(c.remote_bytes for c in streams) / tuples
        )
        out["sim.tuples_per_s"] = tuples / result.sim_s
        out["sim.latency_p99_ms"] = 1e3 * deployment.metrics.latency.percentile(
            0.99
        )
        if manager is not None:
            done = manager.completed_rounds
            out["manager.rounds_completed"] = len(done)
            out["manager.round_sim_ms"] = 1e3 * sum(
                r.duration_s for r in done
            ) / max(1, len(done))
            out["manager.keys_migrated"] = deployment.metrics.migrated_keys
            out["manager.control_bytes"] = sum(
                deployment.metrics.control_bytes.values()
            )
    elif result.backend == "vectorized":
        bolts = [result.op_stats[op] for op in result.processed]
        batches = sum(s["batches_in"] for s in bolts)
        out["vectorized.batches"] = batches
        out["vectorized.tuples_per_batch"] = sum(
            s["tuples_in"] for s in bolts
        ) / max(1.0, batches)
    elif result.backend == "multiprocess":
        measured = result.measured
        worker_cpu_s = measured["cpu_ns_total"] / 1e9
        out["mp.ipc_bytes_per_tuple"] = measured["ipc_bytes_total"] / tuples
        out["mp.ipc_msgs_per_ktuple"] = 1e3 * measured["ipc_msgs_total"] / tuples
        out["mp.worker_cpu_us_per_tuple"] = 1e6 * worker_cpu_s / tuples
        out["mp.worker_busy_frac"] = worker_cpu_s / (
            wall_s * len(measured["per_server"])
        )
        out["mp.op_busy_frac"] = (
            sum(s["busy_s"] for s in result.op_stats.values()) / worker_cpu_s
        )
    return out


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------


def module_of(filename: str) -> str:
    """``.../src/repro/engine/executor.py`` -> ``engine.executor``;
    '' for frames outside the program."""
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return ""
    module = filename[at + len(marker) : -3].replace(os.sep, ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


def attribution(profile: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time per layer."""
    by_module: Dict[str, float] = {}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        module = module_of(filename)
        by_module[module] = by_module.get(module, 0.0) + row[2]
    total = sum(by_module.values()) or 1.0
    out = {"self_frac.other": by_module.pop("", 0.0) / total}
    for layer, prefixes in ATTRIBUTED.items():
        out["self_frac." + layer] = sum(
            by_module.pop(module)
            for module in list(by_module)
            if any(module == p or module.startswith(p + ".") for p in prefixes)
        ) / total
    out["self_frac.repro_rest"] = sum(by_module.values()) / total
    return out


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------


def control_plane_probes(workload, span) -> Tuple[Dict[str, float], Dict]:
    """Sketch -> key graph -> partition -> tables -> migration lists ->
    delta -> compaction, one call each, on the workload's own pairs."""
    pairs = workload.probe_pairs()[:PROBE_PAIRS]
    streams = workload.probe_streams()
    old_tables = workload.probe_old_tables()
    out: Dict[str, float] = {}

    with span("probe.spacesaving"):
        sketch = SpaceSaving(SKETCH_CAPACITY)
        out["spacesaving.offer_ns"] = 1e9 * per_call(sketch.offer, pairs)
    with span("probe.keygraph"):
        seconds, graph = clocked(
            lambda: KeyGraph.from_stats({("S->A", "A->B"): sketch.items()})
        )
        out["keygraph.build_ms"] = 1e3 * seconds
        out["keygraph.vertices"] = graph.num_vertices
        out["keygraph.edges"] = graph.num_edges
    with span("probe.partitioning"):
        seconds, assignment = clocked(
            lambda: compute_assignment(graph, len(streams[0].dst_placements))
        )
        out["partitioning.partition_ms"] = 1e3 * seconds
        out["partitioning.edge_cut_frac"] = 1.0 - expected_locality(
            graph, assignment
        )
    with span("probe.assignment"):
        seconds, tables = clocked(
            lambda: {
                s.name: assignment.table_for(s.name, s.server_to_instance())
                for s in streams
            }
        )
        out["assignment.tables_ms"] = 1e3 * seconds
        olds = {
            s.name: old_tables.get(s.name) or RoutingTable.empty()
            for s in streams
        }
        seconds, moves = clocked(
            lambda: [
                plan_migrations(olds[s.name], tables[s.name], s)
                for s in streams
            ]
        )
        out["assignment.plan_ms"] = 1e3 * seconds
        out["assignment.moved_keys"] = sum(
            len(keys) for per_pair in moves for keys in per_pair.values()
        )
    first = tables[streams[0].name]
    keys = [pair[0] for pair in pairs]
    with span("probe.routing_table"):
        out["routing_table.lookup_ns"] = 1e9 * per_call(first.lookup, keys)
    with span("probe.table_delta"):
        seconds, deltas = clocked(
            lambda: {
                name: TableDelta.diff(olds[name], tables[name])
                for name in tables
            }
        )
        out["table_delta.diff_ms"] = 1e3 * seconds
        seconds, _ = clocked(
            lambda: [deltas[name].apply(olds[name]) for name in tables]
        )
        out["table_delta.apply_ms"] = 1e3 * seconds
        out["table_delta.wire_bytes"] = sum(
            d.wire_bytes() for d in deltas.values()
        )
        out["table_delta.snapshot_bytes"] = sum(
            snapshot_wire_bytes(t) for t in tables.values()
        )
    with span("probe.compact_table"):
        seconds, compact = clocked(
            lambda: CompactRoutingTable.from_table(first)
        )
        out["compact_table.build_ms"] = 1e3 * seconds
        out["compact_table.lookup_ns"] = 1e9 * per_call(compact.lookup, keys)
        out["compact_table.bytes_per_key"] = compact.memory_bytes() / max(
            1, len(compact)
        )
    return out, tables


def data_plane_probes(workload, tables, span) -> Dict[str, float]:
    """The scalar per-tuple layers, on the workload's own tuples."""
    tuples = workload.probe_tuples()
    stream = workload.probe_streams()[0]
    out: Dict[str, float] = {}

    with span("probe.simulator"):
        sim = Simulator()

        def noop() -> None:
            pass

        def drain() -> None:
            for index in range(PROBE_EVENTS):
                sim.schedule(index * 1e-9, noop)
            sim.run()

        out["simulator.event_ns"] = 1e9 * clocked(drain)[0] / PROBE_EVENTS
    with span("probe.grouping"):
        context = RouterContext(
            stream.name, 0, 0, stream.dst_placements, stable_hash(stream.name)
        )
        table_router = TableFieldsGrouping(
            0, table=tables[stream.name]
        ).build_router(context)
        hash_router = TableFieldsGrouping(0).build_router(context)
        out["grouping.table_select_ns"] = 1e9 * per_call(
            table_router.select, tuples
        )
        out["grouping.hash_select_ns"] = 1e9 * per_call(
            hash_router.select, tuples
        )
        out["grouping.table_hit_frac"] = table_router.table_hits / max(
            1, table_router.table_hits + table_router.hash_fallbacks
        )
    with span("probe.tuples"):
        out["tuples.payload_size_ns"] = 1e9 * per_call(payload_size, tuples)
    return out


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def run_traced(workload, timed_cycle, span_path: str) -> dict:
    """``timed_cycle`` (every unit of the workload once) is the untraced
    run's own timer, so both runs time the same region."""
    recorder = SpanRecorder(workload.name)
    span = recorder.span
    metrics: Dict[str, float] = {}

    with span("setup"):
        workload.setup(span)
        workload.warmup()

    with span("run", repeat=0):
        plain, outcomes = timed_cycle(workload)
    if isinstance(workload, FlickrEngine):
        metrics.update(engine_counts(outcomes[0], plain))

    # The second cycle is the traced one: under cProfile where the
    # work happens in this process, plain otherwise (worker processes
    # are out of the profiler's reach; their numbers are the counts).
    with span("run", repeat=1):
        if workload.in_process:
            profile = cProfile.Profile()
            traced, _ = timed_cycle(workload, profile)
            metrics.update(attribution(profile))
        else:
            traced, _ = timed_cycle(workload)
    metrics["trace_overhead_x"] = traced / plain

    with span("probes"):
        control, tables = control_plane_probes(workload, span)
        metrics.update(control)
        metrics.update(data_plane_probes(workload, tables, span))
        if not workload.in_process:
            with span("probe.mp_fork"):
                metrics["mp.fork_teardown_s"], _ = clocked(workload.run_empty)

    with span("verify"):
        checks = [workload.verify(outcome) for outcome in outcomes]
        attempted = sum(check[0] for check in checks)
        failed = sum(check[1] for check in checks)
    metrics["workloads.generate_s"] = recorder.seconds("generate")
    for name in ("setup", "generate", "tables", "run", "verify"):
        metrics[f"span.{name}_s"] = recorder.seconds(name)

    recorder.write(span_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "values": metrics,
        "samples": {},
    }
