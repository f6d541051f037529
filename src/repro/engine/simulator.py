"""Discrete-event simulation core.

A minimal, fast event loop: the heap entry *is* the event —
``(time, sequence, fn, args, handle)`` in a binary heap. Ties in time
are broken by insertion order, which gives deterministic FIFO semantics
for same-instant events — the reconfiguration protocol relies on this
for its channel ordering.

Heap entries are plain tuples so ordering is decided by C-level
``(float, int)`` comparison; with millions of sift comparisons per run,
a Python-level ``__lt__`` on the event object would dominate the loop
(it did, before this was changed — see DESIGN.md §10). ``handle`` is the
:class:`Event` of a cancellable or daemon event and ``None`` for one
pushed by :meth:`Simulator.post`: the data plane cancels none of its
events and builds no object to cancel them with (DESIGN.md §10.3).
"""

from __future__ import annotations

import heapq
import zlib
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


def event_kind(kind: str) -> Callable[[Callable], Callable]:
    """Tag a scheduled callback with the modeled event it stands for:
    its identity for the fingerprint and for RPC faults, so renaming or
    moving it changes neither. Returns ``fn`` itself — no wrapper, so a
    hot-path callback gains no call frame."""

    def tag(fn: Callable) -> Callable:
        fn.event_kind = kind
        return fn

    return tag


class Event:
    """The cancel handle of a scheduled callback, returned by
    :meth:`Simulator.schedule`; also what an interceptor is shown."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "daemon", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable,
        args: tuple,
        daemon: bool = False,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event (idempotent). The owning simulator's live
        and cancelled counters are updated *eagerly* so that
        :attr:`Simulator.pending_events` stays O(1); the heap entry
        itself is discarded lazily when it reaches the top."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._cancelled += 1
            if not self.daemon:
                sim._live -= 1

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, fn={self.fn.__name__}{state})"


class Simulator:
    """Event loop with a simulated clock (seconds as float)."""

    def __init__(self) -> None:
        #: heap of (time, seq, fn, args, handle) — see module doc
        self._heap: List[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._executed = 0
        #: queued non-daemon, non-cancelled events (cancel() decrements
        #: eagerly; popping a cancelled entry must NOT decrement again)
        self._live = 0
        #: cancelled events whose heap entry has not been popped yet
        self._cancelled = 0
        #: optional hook ``fn(event) -> bool`` consulted before each
        #: event runs; returning False consumes the event (it neither
        #: executes nor counts). Used by repro.faults to drop or defer
        #: deliveries; the hook may reschedule the event's callback. A
        #: posted event is shown as an :class:`Event` built on the spot.
        self.interceptor: Optional[Callable[[Event], bool]] = None
        self.intercepted = 0
        #: opt-in event-sequence fingerprint (see :meth:`enable_fingerprint`)
        self._fp_enabled = False
        self._fp = 0

    # ------------------------------------------------------------------
    # Determinism fingerprint
    # ------------------------------------------------------------------

    def enable_fingerprint(self) -> None:
        """Start folding every executed event into a running CRC.

        The fingerprint covers ``(time, event kind)`` of each executed
        event (:func:`event_kind`; an untagged callable contributes its
        qualname) — enough to detect any divergence in event *ordering*
        or *timing* between two runs. It deliberately avoids
        ``hash()`` (randomized per process for strings) so that the same
        seed yields the same fingerprint across processes; the replay
        layer (repro.testing) compares it to certify that a repro bundle
        reproduced the identical event sequence.
        """
        self._fp_enabled = True

    @property
    def fingerprint(self) -> int:
        """Running CRC of the executed event sequence (0 until enabled)."""
        return self._fp

    def _fp_update(self, time: float, fn: Callable) -> None:
        kind = (
            getattr(fn, "event_kind", None)
            or getattr(fn, "__qualname__", None)
            or getattr(fn, "__name__", "<callable>")
        )
        self._fp = zlib.crc32(f"{time!r}:{kind}".encode(), self._fp)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._executed

    @property
    def pending_events(self) -> int:
        """Queued non-cancelled events — O(1): the telemetry layer
        samples this on every snapshot, so it must not scan the heap."""
        return len(self._heap) - self._cancelled

    def stats(self) -> dict:
        """Event-loop health counters, exported by the telemetry layer
        (a large ``pending`` at flush time means the run was cut off
        mid-transient; ``intercepted`` counts fault-consumed events)."""
        return {
            "now": self._now,
            "events_executed": self._executed,
            "events_pending": self.pending_events,
            "events_intercepted": self.intercepted,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: nothing can cancel it, so
        no :class:`Event` is built. Same sequence number, same place in
        the order as ``schedule`` would give it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (self._now + delay, seq, fn, args, None))

    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, fn, args, None))

    def schedule(
        self, delay: float, fn: Callable, *args: Any, daemon: bool = False
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now;
        the returned :class:`Event` cancels it.

        ``daemon`` events never keep the loop alive: a drain-style
        :meth:`run` (no ``until``) stops once only daemon events remain.
        Use it for self-rescheduling periodic probes (samplers,
        telemetry snapshots) that would otherwise make a drain run
        forever.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        # schedule_at inlined (a timer per tuple under a message
        # timeout); now + a non-negative delay is never in the past
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, daemon, self)
        if not daemon:
            self._live += 1
        heapq.heappush(self._heap, (time, seq, fn, args, event))
        return event

    def schedule_at(
        self, time: float, fn: Callable, *args: Any, daemon: bool = False
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, daemon, self)
        if not daemon:
            self._live += 1
        heapq.heappush(self._heap, (time, seq, fn, args, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _intercepted(self, entry: tuple) -> bool:
        """Show the popped entry to the interceptor; True = consumed."""
        event = entry[4] or Event(*entry[:4])
        if self.interceptor(event):
            return False
        self.intercepted += 1
        return True

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            time, _, fn, args, handle = entry
            if handle is None:
                self._live -= 1
            else:
                handle._sim = None  # popped: a late cancel() is a no-op
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                if not handle.daemon:
                    self._live -= 1
            self._now = time
            if self.interceptor is not None and self._intercepted(entry):
                continue
            self._executed += 1
            if self._fp_enabled:
                self._fp_update(time, fn)
            fn(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, the clock passes ``until``,
        or ``max_events`` have executed. Returns the number executed.

        Daemon events (see :meth:`schedule`) don't count as work: a
        drain run (``until=None``) stops as soon as only daemon events
        remain queued.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` (events after it stay queued).
        """
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is None and self._live <= 0:
                break
            entry = heap[0]
            time, _, fn, args, handle = entry
            if handle is not None and handle.cancelled:
                pop(heap)
                handle._sim = None
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            pop(heap)
            if handle is None:
                self._live -= 1
            else:
                handle._sim = None  # popped: a late cancel() is a no-op
                if not handle.daemon:
                    self._live -= 1
            self._now = time
            if self.interceptor is not None and self._intercepted(entry):
                continue
            self._executed += 1
            executed += 1
            if self._fp_enabled:
                self._fp_update(time, fn)
            fn(*args)
        if until is not None and until > self._now:
            self._now = until
        return executed
