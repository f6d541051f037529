"""Run-time metrics: counters, locality, load balance, throughput.

The locality metric matches the paper's definition: the fraction of
tuples on a stream delivered to an instance on the *same server* as the
sender. Load balance matches Fig. 11b: the ratio between the most
loaded instance of an operator and the average load.

Every tally lives in (or is registered with) the hub's
:class:`~repro.observability.registry.MetricRegistry`: per-stream
:class:`StreamCounters` are registry-owned shared objects, and the
per-instance dicts are exported through registered callbacks. The
``locality()`` and ``load_balance()`` computations therefore read the
exact counters a telemetry exporter samples — there is no second tally
that could drift or double-count when both paths are enabled.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.simulator import event_kind
from repro.observability.registry import MetricRegistry


def load_balance(loads: Sequence[int]) -> float:
    """max load / mean load over one operator's instances (>= 1.0;
    1.0 when nothing was received)."""
    total = sum(loads)
    if total == 0:
        return 1.0
    return max(loads) / (total / len(loads))


class LatencyStats:
    """End-to-end tuple latency: count/mean/max plus percentile
    estimates from a bounded reservoir sample (algorithm R), so memory
    stays constant no matter how many tuples complete."""

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self._size = reservoir_size
        self._rng = random.Random(seed)
        self._reservoir: List[float] = []
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, latency_s: float) -> None:
        self.count += 1
        self.total += latency_s
        if latency_s > self.max:
            self.max = latency_s
        if len(self._reservoir) < self._size:
            self._reservoir.append(latency_s)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._size:
                self._reservoir[slot] = latency_s

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(
            len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1)
        )
        return ordered[index]

    def reset(self) -> None:
        self._reservoir.clear()
        self.count = 0
        self.total = 0.0
        self.max = 0.0


class StreamCounters:
    """Per-stream tuple/byte counters split by locality."""

    __slots__ = ("local_tuples", "remote_tuples", "local_bytes", "remote_bytes")

    def __init__(self) -> None:
        self.local_tuples = 0
        self.remote_tuples = 0
        self.local_bytes = 0
        self.remote_bytes = 0

    @property
    def total_tuples(self) -> int:
        return self.local_tuples + self.remote_tuples

    def locality(self) -> float:
        total = self.total_tuples
        if total == 0:
            return 1.0
        return self.local_tuples / total

    def copy(self) -> "StreamCounters":
        clone = StreamCounters()
        clone.local_tuples = self.local_tuples
        clone.remote_tuples = self.remote_tuples
        clone.local_bytes = self.local_bytes
        clone.remote_bytes = self.remote_bytes
        return clone

    def minus(self, other: "StreamCounters") -> "StreamCounters":
        delta = StreamCounters()
        delta.local_tuples = self.local_tuples - other.local_tuples
        delta.remote_tuples = self.remote_tuples - other.remote_tuples
        delta.local_bytes = self.local_bytes - other.local_bytes
        delta.remote_bytes = self.remote_bytes - other.remote_bytes
        return delta

    def telemetry_value(self) -> Dict[str, float]:
        return {
            "local_tuples": self.local_tuples,
            "remote_tuples": self.remote_tuples,
            "local_bytes": self.local_bytes,
            "remote_bytes": self.remote_bytes,
            "locality": self.locality(),
        }


class _StreamMap(dict):
    """``stream name → StreamCounters`` where every value is owned by
    the metric registry (``stream_traffic`` family), so the hub and a
    telemetry exporter share one counter object per stream."""

    def __init__(self, registry: MetricRegistry) -> None:
        super().__init__()
        self._registry = registry

    def __missing__(self, name: str) -> StreamCounters:
        counters = self._registry.state(
            "stream_traffic", StreamCounters, stream=name
        )
        self[name] = counters
        return counters


class MetricsHub:
    """Central tally store all executors report into.

    The hub owns (or is handed) the run's
    :class:`~repro.observability.registry.MetricRegistry` and keeps its
    tallies inside it: stream counters are registry ``state`` objects,
    per-instance dicts are exported through registry callbacks. See the
    module docstring for why this matters.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.emitted: Dict[Tuple[str, int], int] = defaultdict(int)
        self.processed: Dict[Tuple[str, int], int] = defaultdict(int)
        self.received: Dict[Tuple[str, int], int] = defaultdict(int)
        #: per-stream traffic; values are registry-owned StreamCounters
        self.streams: Dict[str, StreamCounters] = _StreamMap(self.registry)
        self.dropped: Dict[str, int] = defaultdict(int)
        #: injected faults by action (fed by repro.faults.FaultInjector)
        self.faults: Dict[str, int] = defaultdict(int)
        #: control-plane messages/bytes by kind (PROPAGATE, MIGRATE, …)
        self.control_messages: Dict[str, int] = defaultdict(int)
        self.control_bytes: Dict[str, int] = defaultdict(int)
        #: keys shipped between peers by MIGRATE messages
        self.migrated_keys = 0
        #: reconfiguration rounds aborted on deadline (fed by Manager)
        self.rounds_aborted = 0
        #: end-to-end latency of completed tuple trees (fed by the acker)
        self.latency = LatencyStats()
        self._export_tallies()

    def _export_tallies(self) -> None:
        """Register the dict tallies with the registry so an exporter
        samples the same stores the hub computes from."""
        per_instance = lambda tally: {  # noqa: E731
            f"{op}[{i}]": count for (op, i), count in sorted(tally.items())
        }
        register = self.registry.register_callback
        register("operator_emitted_tuples", lambda: per_instance(self.emitted))
        register(
            "operator_processed_tuples", lambda: per_instance(self.processed)
        )
        register(
            "operator_received_tuples", lambda: per_instance(self.received)
        )
        register("dropped_tuples", lambda: dict(self.dropped))
        register("faults_injected", lambda: dict(self.faults))
        register("control_messages", lambda: dict(self.control_messages))
        register("control_bytes", lambda: dict(self.control_bytes))
        register("migrated_keys_total", lambda: self.migrated_keys)
        register("rounds_aborted_total", lambda: self.rounds_aborted)
        register(
            "latency_seconds",
            lambda: {
                "count": self.latency.count,
                "mean": self.latency.mean,
                "p50": self.latency.percentile(0.50),
                "p99": self.latency.percentile(0.99),
                "max": self.latency.max,
            },
        )

    # -- reporting (the executors write the tallies above directly) ----

    def on_fault(self, action: str) -> None:
        self.faults[action] += 1

    def on_control_sent(self, kind: str, nbytes: int) -> None:
        self.control_messages[kind] += 1
        self.control_bytes[kind] += nbytes

    def on_keys_migrated(self, count: int) -> None:
        self.migrated_keys += count

    def on_round_aborted(self) -> None:
        self.rounds_aborted += 1

    # -- aggregate queries ----------------------------------------------

    def processed_total(self, op: str) -> int:
        return sum(
            count for (name, _), count in self.processed.items() if name == op
        )

    def emitted_total(self, op: str) -> int:
        return sum(
            count for (name, _), count in self.emitted.items() if name == op
        )

    def received_per_instance(self, op: str, parallelism: int) -> List[int]:
        return [self.received.get((op, i), 0) for i in range(parallelism)]

    def locality(self, stream: Optional[str] = None) -> float:
        """Locality of one stream, or of all streams combined."""
        if stream is not None:
            return self.streams[stream].locality()
        local = sum(c.local_tuples for c in self.streams.values())
        total = sum(c.total_tuples for c in self.streams.values())
        if total == 0:
            return 1.0
        return local / total

    def load_balance(self, op: str, parallelism: int) -> float:
        """:func:`load_balance` over the instances of ``op``."""
        return load_balance(self.received_per_instance(op, parallelism))

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot(self)


class MetricsSnapshot:
    """A frozen copy of the counters, for warmup-adjusted deltas."""

    def __init__(self, hub: MetricsHub) -> None:
        self.emitted = dict(hub.emitted)
        self.processed = dict(hub.processed)
        self.received = dict(hub.received)
        self.streams = {name: c.copy() for name, c in hub.streams.items()}

    def processed_total(self, op: str) -> int:
        return sum(
            count for (name, _), count in self.processed.items() if name == op
        )


class ThroughputSampler:
    """Samples an operator's processing rate every ``interval`` seconds
    of simulated time — the probe behind the Fig. 13 time series."""

    def __init__(self, sim, metrics: MetricsHub, op: str, interval_s: float):
        if interval_s <= 0:
            raise ValueError(f"interval must be > 0, got {interval_s}")
        self._sim = sim
        self._metrics = metrics
        self._op = op
        self._interval = interval_s
        self._last_total = 0
        #: list of (window_end_time, tuples_per_second)
        self.samples: List[Tuple[float, float]] = []

    def start(self) -> None:
        self._last_total = self._metrics.processed_total(self._op)
        self._sim.schedule(self._interval, self._tick, daemon=True)

    @event_kind("THROUGHPUT_SAMPLE")
    def _tick(self) -> None:
        total = self._metrics.processed_total(self._op)
        rate = (total - self._last_total) / self._interval
        self._last_total = total
        self.samples.append((self._sim.now, rate))
        self._sim.schedule(self._interval, self._tick, daemon=True)
