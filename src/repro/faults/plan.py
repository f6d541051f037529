"""Declarative fault plans for chaos-testing the control plane.

A :class:`FaultPlan` lists deterministic fault rules; the
:class:`~repro.faults.injector.FaultInjector` attaches them to a
deployment through three optional interception hooks:

- ``BaseExecutor.deliver_control`` — per-delivery faults on the in-band
  control messages (PROPAGATE / MIGRATE): drop, delay, duplicate,
  reorder, or crash-on-arrival (:class:`ControlFault`);
- ``Simulator.interceptor`` — faults on the out-of-band manager↔POI
  RPC legs (GET_METRICS / SEND_METRICS / SEND_RECONF / ACK_RECONF):
  drop or delay (:class:`RpcFault`);
- ``Network.fault_hook`` — extra wire latency between chosen servers
  (:class:`LinkDelay`), which can reorder deliveries across senders;

plus time-triggered POI crashes (:class:`CrashAt`), which reuse the
engine's crash/restart machinery.

Rules are matched in declaration order and each rule fires at most
``max_matches`` times, so a plan describes a finite, reproducible set
of injected faults — the chaos tests rely on that determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.reconfiguration import RPC_STEPS
from repro.errors import FaultInjectionError

#: fault actions
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
REORDER = "reorder"
CRASH = "crash"

_CONTROL_ACTIONS = (DROP, DELAY, DUPLICATE, REORDER, CRASH)
_RPC_ACTIONS = (DROP, DELAY)


def control_round_id(msg) -> Optional[int]:
    """Round id carried by a PROPAGATE (int payload) or MIGRATE
    (MigratePayload) control message; None for anything else."""
    payload = msg.payload
    if isinstance(payload, int):
        return payload
    return getattr(payload, "round_id", None)


@dataclass
class ControlFault:
    """One rule against in-band control-message deliveries.

    ``None`` fields match anything. ``reorder`` holds the matched
    message and redelivers it right after the *next* control message
    reaching the same executor (an adjacent swap, the minimal FIFO
    violation). ``crash`` kills the destination POI the instant the
    matched message arrives — losing the message with it — and lets the
    supervisor restart it ``down_s`` seconds later.
    """

    action: str
    kind: Optional[str] = None  # PROPAGATE / MIGRATE / None = any
    dst_op: Optional[str] = None
    dst_instance: Optional[int] = None
    sender: Optional[str] = None
    round_id: Optional[int] = None
    max_matches: int = 1
    delay_s: float = 0.0  # for ``delay``
    down_s: float = 0.0  # for ``crash``
    #: how many times this rule has fired (runtime counter)
    matched: int = 0

    def validate(self) -> None:
        if self.action not in _CONTROL_ACTIONS:
            raise FaultInjectionError(
                f"unknown control fault action {self.action!r}"
            )
        if self.action == DELAY and self.delay_s <= 0:
            raise FaultInjectionError("delay fault needs delay_s > 0")
        if self.max_matches < 1:
            raise FaultInjectionError("max_matches must be >= 1")

    def matches(self, executor, msg) -> bool:
        if self.matched >= self.max_matches:
            return False
        if self.kind is not None and msg.kind != self.kind:
            return False
        if self.dst_op is not None and executor.op_name != self.dst_op:
            return False
        if (
            self.dst_instance is not None
            and executor.instance != self.dst_instance
        ):
            return False
        if self.sender is not None and msg.sender != self.sender:
            return False
        if (
            self.round_id is not None
            and control_round_id(msg) != self.round_id
        ):
            return False
        return True


@dataclass
class RpcFault:
    """Drop or delay one leg of the out-of-band manager↔POI RPCs."""

    action: str
    step: Optional[str] = None  # one of RPC_STEPS; None = any leg
    max_matches: int = 1
    delay_s: float = 0.0
    matched: int = 0

    def validate(self) -> None:
        if self.action not in _RPC_ACTIONS:
            raise FaultInjectionError(
                f"unknown rpc fault action {self.action!r}"
            )
        if self.step is not None and self.step not in RPC_STEPS:
            raise FaultInjectionError(
                f"unknown rpc step {self.step!r}; one of {RPC_STEPS}"
            )
        if self.action == DELAY and self.delay_s <= 0:
            raise FaultInjectionError("delay fault needs delay_s > 0")

    def matches(self, step: str) -> bool:
        return self.matched < self.max_matches and self.step in (None, step)


@dataclass
class LinkDelay:
    """Extra propagation latency on transfers between two servers."""

    src_server: Optional[int] = None
    dst_server: Optional[int] = None
    extra_s: float = 0.0
    #: only slow down control messages (data stays untouched)
    control_only: bool = True
    max_matches: Optional[int] = None  # None = unlimited
    matched: int = 0

    def validate(self) -> None:
        if self.extra_s <= 0:
            raise FaultInjectionError("link delay needs extra_s > 0")


@dataclass
class CrashAt:
    """Crash ``op[instance]`` at an absolute simulated time; the
    supervisor restarts it (with empty state) ``down_s`` later."""

    op: str
    instance: int
    at_s: float
    down_s: float = 0.0


@dataclass
class FaultPlan:
    """A deterministic set of faults to inject into one run."""

    control: List[ControlFault] = field(default_factory=list)
    rpcs: List[RpcFault] = field(default_factory=list)
    links: List[LinkDelay] = field(default_factory=list)
    crashes: List[CrashAt] = field(default_factory=list)

    def validate(self) -> None:
        for rule in self.control:
            rule.validate()
        for rule in self.rpcs:
            rule.validate()
        for rule in self.links:
            rule.validate()

    @property
    def empty(self) -> bool:
        return not (self.control or self.rpcs or self.links or self.crashes)
