"""Observability: metric registry, structured tracing, telemetry export.

The paper's Manager decides *when* to reconfigure purely from collected
statistics, yet a reproduction that only prints end-of-run numbers
cannot show a run unfolding — locality climbing after a table swap,
migration traffic attributed to its round, the estimator's predicted
locality drifting from what the next window achieves (the behaviour
behind Figs. 12–14). This package is the missing layer, shaped like the
metrics/tracing stack a production stream processor carries:

- :mod:`~repro.observability.registry` — counters, gauges and bounded
  histograms every subsystem publishes into. One registry per run; the
  engine's :class:`~repro.engine.metrics.MetricsHub` stores its tallies
  *in* the registry so there is exactly one copy of every count.
- :mod:`~repro.observability.trace` — begin/end spans with parent ids.
  The manager emits one span tree per reconfiguration round:
  ``STATS_COLLECT → PARTITION → PROPAGATE → MIGRATE`` with a terminal
  ``COMMIT``/``ABORT``/``SKIP``/``VETO`` event.
- :mod:`~repro.observability.snapshots` — periodic time-series records
  (locality, load balance, cut weight, per-window throughput).
- :mod:`~repro.observability.sink` — where records go: JSON Lines
  (loadable by :mod:`repro.analysis.telemetry`), memory, or the
  default :data:`~repro.observability.sink.NULL_SINK`.

Overhead is opt-in by construction: hot paths either increment plain
integers that were already being counted, or check a single
``sink.enabled`` flag. ``tools/measure_overhead.py`` measures the
default-off overhead against its 3 % budget.

Typical use::

    from repro.observability import attach_telemetry

    deployment = deploy(sim, cluster, topology)
    manager = Manager(deployment, ManagerConfig(period_s=0.5))
    telemetry = attach_telemetry(
        deployment, manager=manager,
        path="results/telemetry.jsonl", snapshot_interval_s=0.05,
    )
    manager.start(); deployment.start(); sim.run(until=1.5)
    telemetry.flush()     # metric dump + close the JSONL file

then ``python -m repro.analysis.report results/telemetry.jsonl``.
"""

from __future__ import annotations

from typing import Optional

from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.observability.sink import (
    JsonlSink,
    MemorySink,
    NULL_SINK,
    NullSink,
    TelemetrySink,
)
from repro.observability.snapshots import SnapshotProbe
from repro.observability.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "TelemetrySink",
    "NullSink",
    "NULL_SINK",
    "MemorySink",
    "JsonlSink",
    "Tracer",
    "Span",
    "SnapshotProbe",
    "Telemetry",
    "attach_telemetry",
]


class Telemetry:
    """One run's registry + tracer + sink, wired to one clock."""

    def __init__(
        self,
        registry: MetricRegistry,
        sink: TelemetrySink,
        clock,
    ) -> None:
        self.registry = registry
        self.sink = sink
        self.clock = clock
        self.tracer = Tracer(clock, sink)
        self.probe: Optional[SnapshotProbe] = None

    @property
    def enabled(self) -> bool:
        return self.sink.enabled

    def flush(self) -> None:
        """Dump every registry metric as ``metric`` records, then close
        the sink. Call once, after the simulation finishes."""
        if self.sink.enabled:
            now = self.clock()
            for sample in self.registry.collect():
                sample["type"] = "metric"
                sample["ts"] = now
                self.sink.emit(sample)
        self.sink.close()


def attach_telemetry(
    deployment,
    manager=None,
    path: Optional[str] = None,
    sink: Optional[TelemetrySink] = None,
    snapshot_interval_s: Optional[float] = None,
) -> Telemetry:
    """Wire full telemetry onto a deployed topology.

    Builds a :class:`Telemetry` around the deployment's existing metric
    registry (``deployment.metrics.registry`` — the hub and exporter
    share counters by design), then:

    - registers callback collectors for the engine tallies that live
      outside the hub: routing-table hit/fallback counts per source
      instance, per-link transfer volume, held-key buffer depth, and
      SpaceSaving occupancy/error of every instrumented instance;
    - hands the tracer to ``manager`` (when given) so reconfiguration
      rounds emit their span tree;
    - arms a :class:`SnapshotProbe` when ``snapshot_interval_s`` is set.

    Exactly one of ``path`` (a JSONL file) or ``sink`` should be given;
    with neither, everything stays a no-op (the null sink).
    """
    from repro.engine.executor import BoltExecutor
    from repro.engine.grouping import TableRouter

    if path is not None and sink is not None:
        raise ValueError("pass either path or sink, not both")
    if sink is None:
        sink = JsonlSink(path) if path is not None else NULL_SINK

    metrics = deployment.metrics
    telemetry = Telemetry(
        registry=metrics.registry,
        sink=sink,
        clock=lambda: deployment.sim.now,
    )
    registry = telemetry.registry

    network = deployment.cluster.network
    registry.register_callback(
        "link_bytes",
        lambda n=network: {
            f"{src}->{dst}": nbytes
            for (src, dst), nbytes in sorted(n.link_bytes.items())
        },
    )
    registry.register_callback(
        "network_bytes_total", lambda n=network: n.bytes_sent
    )
    registry.register_callback(
        "network_messages_total", lambda n=network: n.messages_sent
    )

    for executor in deployment.all_executors():
        for edge in executor.out_edges:
            router = edge.router
            if isinstance(router, TableRouter):
                registry.register_callback(
                    "routing_table_hits",
                    lambda r=router: r.table_hits,
                    stream=edge.stream_name,
                    instance=executor.instance,
                )
                registry.register_callback(
                    "routing_hash_fallbacks",
                    lambda r=router: r.hash_fallbacks,
                    stream=edge.stream_name,
                    instance=executor.instance,
                )
        if isinstance(executor, BoltExecutor):
            registry.register_callback(
                "held_keys",
                lambda e=executor: len(e.held_keys),
                op=executor.op_name,
                instance=executor.instance,
            )
            registry.register_callback(
                "buffered_tuples_total",
                lambda e=executor: e.buffered_count,
                op=executor.op_name,
                instance=executor.instance,
            )
        tracker = executor.instrumentation
        if tracker is not None and hasattr(tracker, "sketch_stats"):
            registry.register_callback(
                "sketch_stats",
                tracker.sketch_stats,
                op=executor.op_name,
                instance=executor.instance,
            )

    if manager is not None:
        manager.set_telemetry(telemetry)

    if snapshot_interval_s is not None:
        telemetry.probe = SnapshotProbe(
            deployment, snapshot_interval_s, sink
        )
        telemetry.probe.start()

    return telemetry
