"""Tuple-tree acking and spout flow control.

Storm tracks, for every spout tuple, the tree of downstream tuples it
spawned; the spout keeps at most ``max_pending`` trees in flight. The
simulation models the same credit loop: measured throughput is then the
rate of the bottleneck stage, exactly as on a real Storm cluster with
acking enabled.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.engine.simulator import event_kind
from repro.errors import SimulationError


class Acker:
    """Tracks outstanding tuple counts per tuple tree (root id)."""

    def __init__(
        self,
        sim,
        ack_delay_s: float,
        latency_stats=None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._ack_delay = ack_delay_s
        # root_id -> [outstanding_count, on_complete, started_at,
        #             on_fail, timeout_event]
        self._trees: Dict[int, list] = {}
        self.completed = 0
        self.failed = 0
        #: optional LatencyStats fed with tree completion latencies
        self.latency_stats = latency_stats
        #: Storm's topology.message.timeout: incomplete trees fail and
        #: are replayed by their spout. None disables (tests that
        #: drain exactly once rely on that default).
        self.timeout_s = timeout_s
        # Trees completed at the same simulated instant (a bolt
        # finishing a batch completes several at once) share one
        # ack-delivery event; their callbacks run in completion order,
        # exactly as the equal-time per-tree events would have.
        self._ack_batch: List[Callable[[], None]] = []
        self._ack_batch_time = -1.0

    @property
    def in_flight(self) -> int:
        """Number of incomplete tuple trees."""
        return len(self._trees)

    def register(
        self,
        root_id: int,
        on_complete: Callable[[], None],
        on_fail: Optional[Callable[[], None]] = None,
    ) -> None:
        """Start tracking a new spout tuple.

        ``on_fail`` fires instead of ``on_complete`` if the tree does
        not finish within ``timeout_s`` (when timeouts are enabled).
        """
        if root_id in self._trees:
            raise SimulationError(f"root {root_id} already registered")
        timeout_event = None
        if self.timeout_s is not None and on_fail is not None:
            timeout_event = self._sim.schedule(
                self.timeout_s, self._on_timeout, root_id
            )
        self._trees[root_id] = [
            1, on_complete, self._sim.now, on_fail, timeout_event,
        ]

    @event_kind("TREE_TIMEOUT")
    def _on_timeout(self, root_id: int) -> None:
        tree = self._trees.pop(root_id, None)
        if tree is None:
            return
        self.failed += 1
        if tree[3] is not None:
            tree[3]()

    def on_processed(self, root_id: int, emitted: int) -> None:
        """One tuple of the tree was fully processed, spawning
        ``emitted`` children."""
        tree = self._trees.get(root_id)
        if tree is None:
            # The tree may already be complete if the root was never
            # anchored (e.g. control-plane emissions); ignore silently.
            return
        tree[0] += emitted - 1
        if tree[0] < 0:
            raise SimulationError(f"negative outstanding for root {root_id}")
        if tree[0] == 0:
            del self._trees[root_id]
            self.completed += 1
            if tree[4] is not None:
                tree[4].cancel()
            now = self._sim.now
            if self.latency_stats is not None:
                self.latency_stats.record(now - tree[2])
            # The ack message travels back to the spout.
            if self._ack_batch and self._ack_batch_time == now:
                self._ack_batch.append(tree[1])
            else:
                batch = [tree[1]]
                self._ack_batch = batch
                self._ack_batch_time = now
                self._sim.post(self._ack_delay, self._deliver_acks, batch)

    @event_kind("ACKS_ARRIVE")
    def _deliver_acks(self, batch: List[Callable[[], None]]) -> None:
        for on_complete in batch:
            on_complete()
