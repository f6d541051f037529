"""Per-instance statistics collection (Section 3.2, Figure 4).

Every instrumented operator instance counts, for each tuple it
processes, the pair *(key that routed the tuple here, key that routes
the produced tuple onward)*. Counting uses SpaceSaving so memory stays
bounded no matter how many distinct pairs appear; only the most
frequent pairs — the ones worth co-locating — survive.

The tracker plugs into the engine through the executor's
``instrumentation`` hook, which calls
``observe(in_op, in_key, out_stream, out_key)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Tuple

from repro.spacesaving import ItemEstimate, SpaceSaving

#: A pair observation namespace: (input stream name, output stream name).
EdgePair = Tuple[str, str]


class PairTracker:
    """Bounded-memory (input key, output key) pair counter.

    Parameters
    ----------
    op_name:
        The instrumented operator (used to reconstruct the input stream
        name from the source operator the executor reports).
    capacity:
        SpaceSaving capacity *per (in-stream, out-stream) pair*. The
        paper uses a few MB per instance; at ~100 B per monitored pair,
        the default tracks the top 4096 pairs in well under 1 MB.
    sketch_factory:
        Alternative counter (e.g. ``ExactCounter``) with the same
        interface — used by the offline baseline and the Fig. 12
        edge-budget sweep.
    """

    def __init__(
        self,
        op_name: str,
        capacity: int = 4096,
        sketch_factory: Callable[[int], object] = SpaceSaving,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.op_name = op_name
        self.capacity = capacity
        self._sketch_factory = sketch_factory
        self._sketches: Dict[EdgePair, object] = {}
        #: the same sketches as the executor names them, source
        #: operator → out stream, so the hot path formats no stream name
        self._by_source: Dict[str, Dict[str, object]] = {}
        self.observed = 0

    # ------------------------------------------------------------------
    # Hot path (called by the executor for every processed tuple)
    # ------------------------------------------------------------------

    def observe(
        self,
        in_op: str,
        in_key: Hashable,
        out_stream: str,
        out_key: Hashable,
    ) -> None:
        try:
            sketch = self._by_source[in_op][out_stream]
        except KeyError:
            sketch = self._sketch_for(in_op, out_stream)
        sketch.offer((in_key, out_key))
        self.observed += 1

    def _sketch_for(self, in_op: str, out_stream: str):
        sketch = self._sketch_factory(self.capacity)
        self._sketches[(f"{in_op}->{self.op_name}", out_stream)] = sketch
        self._by_source.setdefault(in_op, {})[out_stream] = sketch
        return sketch

    # ------------------------------------------------------------------
    # Collection (the manager's GET_METRICS)
    # ------------------------------------------------------------------

    def collect(self) -> Dict[EdgePair, List[ItemEstimate]]:
        """All monitored pair counts, most frequent first."""
        return {
            edge_pair: list(sketch.items())
            for edge_pair, sketch in self._sketches.items()
        }

    def collect_and_clear(self) -> Dict[EdgePair, List[ItemEstimate]]:
        """Collect, then reinitialize — the paper resets statistics at
        every reconfiguration so only recent data shapes the next
        routing decision."""
        stats = self.collect()
        self.clear()
        return stats

    def clear(self) -> None:
        for sketch in self._sketches.values():
            sketch.clear()
        self.observed = 0

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def sketch_stats(self) -> Dict[str, Dict[str, int]]:
        """Occupancy and error bound of every sketch, keyed by
        ``"in_stream|out_stream"`` — how full the SpaceSaving summaries
        are and how loose their estimates have become (``error_bound``
        is the sketch's ``N / m`` overestimation cap; 0 for exact
        counters). Sampled by the telemetry layer between collections.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for (in_stream, out_stream), sketch in self._sketches.items():
            stats[f"{in_stream}|{out_stream}"] = {
                "occupancy": len(sketch),
                "capacity": self.capacity,
                "observed_weight": getattr(sketch, "n", 0),
                "error_bound": (
                    sketch.max_error() if hasattr(sketch, "max_error") else 0
                ),
            }
        return stats

    def __repr__(self) -> str:
        return (
            f"PairTracker(op={self.op_name!r}, observed={self.observed}, "
            f"edges={list(self._sketches)})"
        )
