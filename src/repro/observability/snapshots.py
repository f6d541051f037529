"""Periodic time-series snapshots of a running deployment.

The end-of-run numbers in :class:`~repro.engine.runner.RunResult` hide
the dynamics the paper's Figures 12–14 are about: locality climbing
after a reconfiguration, load balance degrading as a key flashes,
throughput dipping during migration. The probe samples those series
every ``interval_s`` of *simulated* time and emits one ``snapshot``
record per window to the telemetry sink::

    {"type": "snapshot", "ts": 0.35, "window_s": 0.05,
     "locality": 0.91, "window_locality": 0.97,
     "throughput": {"B": 14250.0},              # tuples/s this window
     "load_balance": {"B": 1.08},               # cumulative max/mean
     "streams": {"A->B": {"local": 612, "remote": 41}},   # this window
     "network_bytes": 81234,                    # this window
     "cut_weight": 512.0, "predicted_locality": 0.88}     # last plan

``cut_weight``/``predicted_locality`` come from the registry gauges the
manager sets after each PARTITION step and are omitted until a plan
exists. Windowed values are deltas of the shared registry counters —
the probe keeps only the previous cumulative values, never a second
tally.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.simulator import event_kind
from repro.observability.sink import NULL_SINK, TelemetrySink


class SnapshotProbe:
    """Samples locality / load balance / throughput time series.

    Parameters
    ----------
    deployment:
        The running :class:`~repro.engine.runner.Deployment`; supplies
        the simulator clock, the metrics hub and operator parallelisms.
    interval_s:
        Simulated seconds between snapshots.
    sink:
        Where records go; the default null sink makes the probe free to
        leave attached (it also skips sampling entirely).
    """

    def __init__(
        self,
        deployment,
        interval_s: float,
        sink: TelemetrySink = NULL_SINK,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be > 0, got {interval_s}")
        self._deployment = deployment
        self._sim = deployment.sim
        self._metrics = deployment.metrics
        self._interval = interval_s
        self._sink = sink
        self._parallelism = {
            op.name: op.parallelism
            for op in deployment.topology.operators.values()
        }
        self._bolts = [op.name for op in deployment.topology.bolts]
        self._last_processed: Dict[str, int] = {}
        self._last_streams: Dict[str, tuple] = {}
        self._last_bytes = 0
        #: every emitted record, newest last (tests and in-process use)
        self.samples: List[dict] = []
        self._started = False

    def start(self) -> None:
        """Arm the periodic sampling (idempotent)."""
        if self._started or not self._sink.enabled:
            return
        self._started = True
        self._rebase()
        self._sim.schedule(self._interval, self._tick, daemon=True)

    def _rebase(self) -> None:
        metrics = self._metrics
        self._last_processed = {
            op: metrics.processed_total(op) for op in self._bolts
        }
        self._last_streams = {
            name: (c.local_tuples, c.remote_tuples)
            for name, c in metrics.streams.items()
        }
        self._last_bytes = self._deployment.cluster.network.bytes_sent

    @event_kind("TELEMETRY_SNAPSHOT")
    def _tick(self) -> None:
        metrics = self._metrics
        record = {
            "type": "snapshot",
            "ts": self._sim.now,
            "window_s": self._interval,
            "locality": metrics.locality(),
        }

        streams: Dict[str, Dict[str, int]] = {}
        window_local = 0
        window_total = 0
        for name, counters in metrics.streams.items():
            last_local, last_remote = self._last_streams.get(name, (0, 0))
            local = counters.local_tuples - last_local
            remote = counters.remote_tuples - last_remote
            self._last_streams[name] = (
                counters.local_tuples, counters.remote_tuples
            )
            streams[name] = {"local": local, "remote": remote}
            window_local += local
            window_total += local + remote
        record["streams"] = streams
        record["window_locality"] = (
            window_local / window_total if window_total else 1.0
        )

        throughput = {}
        for op in self._bolts:
            total = metrics.processed_total(op)
            throughput[op] = (
                total - self._last_processed.get(op, 0)
            ) / self._interval
            self._last_processed[op] = total
        record["throughput"] = throughput

        record["load_balance"] = {
            op: metrics.load_balance(op, self._parallelism[op])
            for op in self._bolts
        }

        bytes_sent = self._deployment.cluster.network.bytes_sent
        record["network_bytes"] = bytes_sent - self._last_bytes
        self._last_bytes = bytes_sent

        registry = getattr(metrics, "registry", None)
        if registry is not None:
            for field, gauge_name in (
                ("cut_weight", "reconf_last_cut_weight"),
                ("predicted_locality", "reconf_last_predicted_locality"),
            ):
                gauge = registry.get(gauge_name)
                if gauge is not None:
                    record[field] = gauge.value

        self.samples.append(record)
        self._sink.emit(record)
        self._sim.schedule(self._interval, self._tick, daemon=True)
