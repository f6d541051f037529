"""Network model: per-server NIC queues, bandwidth and latency.

Each server owns a full-duplex NIC modeled as two independent FIFO
rate resources (egress and ingress). A remote transfer:

1. serializes onto the sender's **egress** at ``size / bandwidth``;
2. crosses the wire with a fixed propagation **latency**;
3. serializes off the receiver's **ingress** at ``size / bandwidth``;
4. is delivered.

This reproduces both saturation regimes the paper exercises: a single
sender's egress saturating, and in-cast (n-1 senders towards one
receiver) saturating the ingress. Delivery order per (source,
destination) pair is FIFO, which the reconfiguration protocol uses as a
barrier property (see core.reconfiguration).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.simulator import Simulator


class FifoChannel:
    """A rate-limited FIFO resource (one direction of a NIC).

    Work items are served back-to-back at ``rate`` bytes/second;
    :meth:`reserve` returns when the last byte has passed.
    """

    __slots__ = ("_sim", "_rate", "_free_at", "name")

    def __init__(self, sim: Simulator, rate: Optional[float], name: str = ""):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be > 0 or None, got {rate}")
        self._sim = sim
        self._rate = rate
        self._free_at = 0.0
        self.name = name

    def reserve(self, nbytes: int, earliest: Optional[float] = None) -> float:
        """Reserve FIFO service for ``nbytes`` starting no earlier than
        ``earliest`` (default: now). Returns the completion time.

        Reservations are made in submission order; with uniform
        latencies this equals arrival order, so per-pair FIFO delivery
        is preserved (a property the reconfiguration barrier needs).
        """
        now = self._sim.now
        service = 0.0 if self._rate is None else nbytes / self._rate
        start = max(now if earliest is None else earliest, self._free_at)
        done = start + service
        self._free_at = done
        return done


class Nic:
    """The full-duplex NIC of one server."""

    __slots__ = ("egress", "ingress")

    def __init__(self, sim: Simulator, rate: Optional[float], name: str):
        self.egress = FifoChannel(sim, rate, name=f"{name}.egress")
        self.ingress = FifoChannel(sim, rate, name=f"{name}.ingress")


class Network:
    """The cluster interconnect.

    Parameters
    ----------
    bandwidth_bytes_per_s:
        Per-NIC, per-direction bandwidth; ``None`` means infinite.
    latency_s:
        Propagation latency between any two servers in the same rack.
    inter_rack_latency_s:
        Propagation latency across racks (defaults to ``latency_s``).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: Optional[float],
        latency_s: float = 50.0e-6,
        inter_rack_latency_s: Optional[float] = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self._sim = sim
        self._bandwidth = bandwidth_bytes_per_s
        self._latency = latency_s
        self._inter_rack_latency = (
            latency_s if inter_rack_latency_s is None else inter_rack_latency_s
        )
        self._nics: dict = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # per-link [bytes, messages], one dict lookup per transfer;
        # exposed as the link_bytes / link_messages views below
        self._link_stats: dict = {}
        #: optional hook ``fn(src, dst, nbytes, fn, args) -> float``
        #: returning extra propagation latency (seconds) for this
        #: transfer; None or 0.0 leaves the transfer untouched. Extra
        #: latency is applied after egress, so it can reorder delivery
        #: relative to other senders — exactly the imperfection the
        #: fault-injection layer (repro.faults) exercises.
        self.fault_hook: Optional[Callable] = None

    @property
    def link_bytes(self) -> dict:
        """Per-link transfer volume: (src server, dst server) → bytes —
        lets telemetry attribute wire traffic (e.g. a migration burst)
        to the specific link that carried it."""
        return {link: stats[0] for link, stats in self._link_stats.items()}

    @property
    def link_messages(self) -> dict:
        """Per-link message counts: (src server, dst server) → count."""
        return {link: stats[1] for link, stats in self._link_stats.items()}

    def attach(self, server) -> Nic:
        """Create (or return) the NIC for a server."""
        nic = self._nics.get(server.index)
        if nic is None:
            nic = Nic(self._sim, self._bandwidth, name=f"server{server.index}")
            self._nics[server.index] = nic
        return nic

    def nic(self, server_index: int) -> Nic:
        return self._nics[server_index]

    def latency_between(self, src, dst) -> float:
        if src.rack == dst.rack:
            return self._latency
        return self._inter_rack_latency

    def transfer(
        self, src, dst, nbytes: int, fn: Callable, *args: Any
    ) -> None:
        """Move ``nbytes`` from ``src`` server to ``dst`` server, then
        call ``fn(*args)`` on delivery."""
        if src.index == dst.index:
            raise ValueError(
                f"transfer within server {src.index}; use direct delivery"
            )
        self.messages_sent += 1
        self.bytes_sent += nbytes
        link = (src.index, dst.index)
        stats = self._link_stats.get(link)
        if stats is None:
            stats = self._link_stats[link] = [0, 0]
        stats[0] += nbytes
        stats[1] += 1
        latency = self.latency_between(src, dst)
        if self.fault_hook is not None:
            extra = self.fault_hook(src, dst, nbytes, fn, args)
            if extra:
                latency += extra
        egress_done = self._nics[src.index].egress.reserve(nbytes)
        arrival = egress_done + latency
        ingress_done = self._nics[dst.index].ingress.reserve(nbytes, arrival)
        self._sim.post_at(ingress_done, fn, *args)
