"""Calibrated cost model for the simulated Storm cluster.

The paper's testbed reaches roughly 110 Ktuples/s per server per
pipeline stage with tiny tuples (Fig. 7d: locality-aware scales from
~110 K at parallelism 1 to ~650 K at 6), loses ~22 % when small tuples
cross the network (Fig. 7a at parallelism 1 vs 2), and becomes strongly
network-bound as padding grows. Three cost components reproduce these
regimes:

1. per-tuple CPU **service time** at each executor;
2. **serialization** CPU on remote sends (fixed + per-byte, like
   Storm's kryo path) and symmetric **deserialization** on receive;
3. finite-bandwidth **NIC** queues plus propagation latency.

Absolute numbers are calibration constants; the reproduction targets
the *shape* of the curves (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """All timing constants of the simulated execution environment."""

    #: CPU time to produce one tuple at a spout.
    spout_service_s: float = 2.0e-6
    #: CPU time to process one tuple at a bolt (the operator logic).
    bolt_service_s: float = 9.0e-6
    #: Fixed CPU cost to serialize one outgoing remote tuple.
    ser_fixed_s: float = 1.0e-6
    #: Per-byte CPU cost of serialization (~1.25 GB/s memory path).
    ser_per_byte_s: float = 0.8e-9
    #: Fixed CPU cost to deserialize one incoming remote tuple.
    deser_fixed_s: float = 1.0e-6
    #: Per-byte CPU cost of deserialization.
    deser_per_byte_s: float = 0.8e-9
    #: Framing overhead added to every tuple's payload size.
    tuple_header_bytes: int = 84
    #: Time for an ack to travel back to the spout (acks bypass the
    #: NIC model: they are ~20 bytes and Storm batches them).
    ack_delay_s: float = 200.0e-6
    #: Spout back-off when its source has no tuple ready.
    spout_idle_retry_s: float = 100.0e-6
    #: Size of a control-plane message (routing tables etc. are small).
    control_message_bytes: int = 512
    #: CPU time to handle one control message at an executor.
    control_service_s: float = 5.0e-6
    #: Per-key payload when migrating operator state (a counter entry).
    state_bytes_per_key: int = 64

    def ser_cost(self, nbytes: int) -> float:
        """CPU seconds to serialize a remote tuple of ``nbytes``."""
        return self.ser_fixed_s + nbytes * self.ser_per_byte_s

    def deser_cost(self, nbytes: int) -> float:
        """CPU seconds to deserialize a remote tuple of ``nbytes``."""
        return self.deser_fixed_s + nbytes * self.deser_per_byte_s

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy of this model with some constants replaced."""
        return replace(self, **kwargs)


#: The default calibration used by the benchmarks.
DEFAULT_COSTS = CostModel()
