"""The fault injector: attaches a FaultPlan to a live deployment.

The injector is the single object behind all three engine hooks (see
:mod:`repro.faults.plan`). It records every injected fault in
:attr:`FaultInjector.log` and mirrors per-action counts into the
deployment's :class:`~repro.engine.metrics.MetricsHub` (``faults``),
so chaos tests can assert both that faults actually fired and that the
system absorbed them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.executor import BaseExecutor, BoltExecutor, ControlMessage
from repro.engine.simulator import event_kind
from repro.errors import FaultInjectionError
from repro.faults.plan import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    RPC_STEPS,
    FaultPlan,
)


class FaultInjector:
    """Applies a :class:`FaultPlan` to one deployment.

    Usage::

        injector = FaultInjector(plan).attach(deployment, manager)
        ... run the simulation ...
        injector.log         # what fired, when, where
    """

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        #: (time, action, target, detail) of every injected fault
        self.log: List[Tuple[float, str, str, str]] = []
        self._sim = None
        self._metrics = None
        self._manager = None
        #: executor -> messages held back by reorder rules
        self._held: Dict[BaseExecutor, List[ControlMessage]] = {}
        # cache bound hooks so detach() can compare identities
        self._transfer_hook = self._on_transfer
        self._event_hook = self._on_event

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, deployment, manager=None) -> "FaultInjector":
        self._sim = deployment.sim
        self._metrics = deployment.metrics
        self._manager = manager
        for executor in deployment.all_executors():
            executor.fault_hook = self
        if self.plan.links:
            deployment.cluster.network.fault_hook = self._transfer_hook
        if self.plan.rpcs:
            if manager is None:
                raise FaultInjectionError(
                    "rpc faults target the manager; pass it to attach()"
                )
            self._sim.interceptor = self._event_hook
        for crash in self.plan.crashes:
            executor = deployment.executor(crash.op, crash.instance)
            self._require_crashable(executor)
            self._sim.schedule_at(
                crash.at_s, self._crash, executor, crash.down_s
            )
        return self

    def detach(self, deployment) -> None:
        for executor in deployment.all_executors():
            if executor.fault_hook is self:
                executor.fault_hook = None
        if deployment.cluster.network.fault_hook is self._transfer_hook:
            deployment.cluster.network.fault_hook = None
        if deployment.sim.interceptor is self._event_hook:
            deployment.sim.interceptor = None

    @staticmethod
    def _require_crashable(executor) -> None:
        if not isinstance(executor, BoltExecutor):
            raise FaultInjectionError(
                f"{executor.name} cannot crash (only bolt executors "
                f"model crash/restart)"
            )

    # ------------------------------------------------------------------
    # Hook: executor control deliveries (in-band PROPAGATE / MIGRATE)
    # ------------------------------------------------------------------

    def on_control(self, executor: BaseExecutor, msg: ControlMessage) -> bool:
        """Called by ``BaseExecutor.deliver_control``; True = consumed."""
        rule = None
        for candidate in self.plan.control:
            if candidate.matches(executor, msg):
                rule = candidate
                break
        if rule is not None:
            rule.matched += 1
            self._record(rule.action, executor.name, msg)
            if rule.action == DROP:
                return True
            if rule.action == DELAY:
                self._sim.schedule(
                    rule.delay_s, self._deliver_late, executor, msg
                )
                return True
            if rule.action == DUPLICATE:
                executor.accept_control(msg)
                self._flush_held(executor)
                executor.accept_control(self._copy(msg))
                return True
            if rule.action == REORDER:
                self._held.setdefault(executor, []).append(msg)
                return True
            if rule.action == CRASH:
                self._require_crashable(executor)
                executor.crash(rule.down_s)
                # the message goes down with the POI (accept_control
                # drops it and counts the drop in metrics)
                executor.accept_control(msg)
                return True
        if executor in self._held:
            # A reorder rule held an earlier message: let this one
            # overtake it, then release the held ones.
            executor.accept_control(msg)
            self._flush_held(executor)
            return True
        return False

    @event_kind("FAULT_DELAYED_CONTROL")
    def _deliver_late(self, executor, msg: ControlMessage) -> None:
        executor.accept_control(msg)

    def _flush_held(self, executor: BaseExecutor) -> None:
        for held in self._held.pop(executor, []):
            executor.accept_control(held)

    @staticmethod
    def _copy(msg: ControlMessage) -> ControlMessage:
        return ControlMessage(msg.kind, msg.payload, msg.sender, msg.size)

    # ------------------------------------------------------------------
    # Hook: simulator events (out-of-band manager RPC legs)
    # ------------------------------------------------------------------

    def _on_event(self, event) -> bool:
        fn = event.fn
        step = getattr(fn, "event_kind", None)
        if step not in RPC_STEPS:
            return True
        if getattr(fn, "__self__", None) is not self._manager:
            return True
        for rule in self.plan.rpcs:
            if not rule.matches(step):
                continue
            rule.matched += 1
            self._record(f"rpc_{rule.action}", step, None)
            if rule.action == DROP:
                return False
            if rule.action == DELAY:
                self._sim.schedule(rule.delay_s, fn, *event.args)
                return False
        return True

    # ------------------------------------------------------------------
    # Hook: network transfers (wire-level link delays)
    # ------------------------------------------------------------------

    def _on_transfer(self, src, dst, nbytes, fn, args) -> float:
        is_control = bool(args) and isinstance(args[0], ControlMessage)
        extra = 0.0
        for link in self.plan.links:
            if link.control_only and not is_control:
                continue
            if link.src_server is not None and link.src_server != src.index:
                continue
            if link.dst_server is not None and link.dst_server != dst.index:
                continue
            if (
                link.max_matches is not None
                and link.matched >= link.max_matches
            ):
                continue
            link.matched += 1
            extra += link.extra_s
            self._record(
                "link_delay", f"server{src.index}->server{dst.index}",
                args[0] if is_control else None,
            )
        return extra

    # ------------------------------------------------------------------
    # Crashes and bookkeeping
    # ------------------------------------------------------------------

    @event_kind("FAULT_CRASH")
    def _crash(self, executor, down_s: float) -> None:
        self._record("crash", executor.name, None)
        executor.crash(down_s)

    def _record(
        self, action: str, target: str, msg: Optional[ControlMessage]
    ) -> None:
        detail = "" if msg is None else repr(msg)
        self.log.append((self._sim.now, action, target, detail))
        if self._metrics is not None:
            self._metrics.on_fault(action)

    @property
    def injected(self) -> int:
        """Total number of faults that actually fired."""
        return len(self.log)
