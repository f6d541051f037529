"""Elastic scaling: a load-watching controller for online rescaling.

The paper keeps the instance count of every operator fixed; this module
adds the natural elasticity extension on top of the reconfiguration
protocol. An :class:`ElasticityController` periodically samples the
load signals that the engine already exposes —

* per-instance **queue depth** (the most direct backpressure signal),
* per-instance **throughput** (received-tuple deltas between samples),
* **SpaceSaving occupancy** of the pair sketches (how crowded the
  observed key space is),

— and when a threshold trips it asks the :class:`~repro.core.manager.
Manager` for a *rescale round*: the manager spawns or retires POI
instances, repartitions the key graph for the new width and migrates
state through Algorithm 1 without stopping the stream.

Determinism contract: **constructing** a controller schedules nothing
and perturbs nothing — a simulation with a controller that is never
:meth:`~ElasticityController.start`-ed is event-for-event identical
(same fingerprint) to one without it. Only ``start()`` arms the
sampling tick, and the tick is a *daemon* event so an armed-but-idle
controller never keeps a drain run alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.simulator import event_kind
from repro.errors import ReconfigurationError


@dataclass
class ElasticityConfig:
    """Tunables of the elasticity controller."""

    #: Sample the load signals every this many simulated seconds.
    check_period_s: float = 0.05
    #: Scale out when any instance's queue is at least this deep.
    scale_out_queue_depth: float = 32.0
    #: Scale in when *every* instance's queue is at most this deep ...
    scale_in_queue_depth: float = 2.0
    #: ... for this many consecutive samples (guards against scaling
    #: in during a momentary lull or before the workload ramps up).
    scale_in_consecutive: int = 3
    #: Secondary scale-out trigger: any pair sketch at least this full
    #: (fraction of capacity); None disables the occupancy signal.
    scale_out_occupancy: Optional[float] = None
    #: Parallelism bounds the controller may move between.
    min_parallelism: int = 1
    max_parallelism: int = 8
    #: Instances added/removed per decision.
    step: int = 1
    #: Minimum simulated seconds between two triggered rescales.
    cooldown_s: float = 0.1


@dataclass
class ScalingDecision:
    """One controller decision (kept for tests and experiments)."""

    at: float
    from_parallelism: int
    to_parallelism: int
    reason: str
    #: False when the manager declined (round in flight, rollback...)
    started: bool = True


class ElasticityController:
    """Watches per-POI load and drives the manager's rescale rounds.

    The controller is passive until :meth:`start` is called; sampling
    stops again after :meth:`stop` (the pending daemon tick fires once
    more and does nothing).
    """

    def __init__(self, manager, config: Optional[ElasticityConfig] = None):
        self.manager = manager
        self.config = config or ElasticityConfig()
        if self.config.min_parallelism < 1:
            raise ReconfigurationError(
                f"min_parallelism must be >= 1, got "
                f"{self.config.min_parallelism}"
            )
        if self.config.max_parallelism < self.config.min_parallelism:
            raise ReconfigurationError(
                "max_parallelism must be >= min_parallelism"
            )
        self.decisions: List[ScalingDecision] = []
        self.samples = 0
        #: the most recent load sample (exported through the registry)
        self.last_sample: Dict[str, float] = {}
        self._armed = False
        self._last_action_at: Optional[float] = None
        self._last_received: Dict[Tuple[str, int], int] = {}
        self._last_sample_at: Optional[float] = None
        self._low_streak = 0
        registry = manager.deployment.metrics.registry
        registry.register_callback(
            "elasticity_decisions", lambda: len(self.decisions)
        )
        registry.register_callback(
            "elasticity_max_queue_depth",
            lambda: self.last_sample.get("max_queue_depth", 0.0),
        )
        registry.register_callback(
            "elasticity_max_rate",
            lambda: self.last_sample.get("max_rate", 0.0),
        )
        registry.register_callback(
            "elasticity_max_occupancy",
            lambda: self.last_sample.get("max_occupancy", 0.0),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def start(self) -> None:
        """Arm periodic sampling. Idempotent."""
        if self._armed:
            return
        self._armed = True
        self._schedule_tick()

    def stop(self) -> None:
        """Disarm sampling (the in-flight tick fires and does nothing)."""
        self._armed = False

    def _schedule_tick(self) -> None:
        self.manager.sim.schedule(
            self.config.check_period_s, self._tick, daemon=True
        )

    @event_kind("ELASTICITY_TICK")
    def _tick(self) -> None:
        if not self._armed:
            return
        self.sample_and_act()
        self._schedule_tick()

    # ------------------------------------------------------------------
    # Sampling and decisions
    # ------------------------------------------------------------------

    def _stateful_tiers(self) -> List[str]:
        return sorted(
            {s.dst_op for s in self.manager.routed_streams if s.stateful_dst}
        )

    def sample(self) -> Dict[str, float]:
        """Read the load signals without acting on them."""
        manager = self.manager
        deployment = manager.deployment
        now = manager.sim.now
        max_depth = 0.0
        max_rate = 0.0
        max_occupancy = 0.0
        elapsed = (
            now - self._last_sample_at
            if self._last_sample_at is not None
            else None
        )
        for op_name in self._stateful_tiers():
            for executor in deployment.instances(op_name):
                max_depth = max(max_depth, float(executor.queue_depth))
                received = deployment.metrics.received[
                    (op_name, executor.instance)
                ]
                key = (op_name, executor.instance)
                if elapsed is not None and elapsed > 0:
                    delta = received - self._last_received.get(key, 0)
                    max_rate = max(max_rate, delta / elapsed)
                self._last_received[key] = received
        for executor in deployment.all_executors():
            tracker = getattr(executor, "instrumentation", None)
            if tracker is None:
                continue
            for stats in tracker.sketch_stats().values():
                if stats["capacity"]:
                    max_occupancy = max(
                        max_occupancy,
                        stats["occupancy"] / stats["capacity"],
                    )
        self._last_sample_at = now
        self.samples += 1
        self.last_sample = {
            "max_queue_depth": max_depth,
            "max_rate": max_rate,
            "max_occupancy": max_occupancy,
        }
        return self.last_sample

    def sample_and_act(self) -> Optional[ScalingDecision]:
        """One controller step: sample, decide, maybe rescale."""
        manager = self.manager
        sample = self.sample()
        if manager.round_active or manager.rescale_in_progress:
            return None
        config = self.config
        now = manager.sim.now
        if (
            self._last_action_at is not None
            and now - self._last_action_at < config.cooldown_s
        ):
            return None
        k = manager.tier_parallelism
        max_depth = sample["max_queue_depth"]
        max_occupancy = sample["max_occupancy"]

        if max_depth > config.scale_in_queue_depth:
            self._low_streak = 0
        reason = None
        target = k
        if max_depth >= config.scale_out_queue_depth:
            reason = f"queue depth {max_depth:.0f}"
            target = min(k + config.step, config.max_parallelism)
        elif (
            config.scale_out_occupancy is not None
            and max_occupancy >= config.scale_out_occupancy
        ):
            reason = f"sketch occupancy {max_occupancy:.2f}"
            target = min(k + config.step, config.max_parallelism)
        elif max_depth <= config.scale_in_queue_depth:
            self._low_streak += 1
            if self._low_streak >= config.scale_in_consecutive:
                reason = (
                    f"queue depth <= {config.scale_in_queue_depth:.0f} "
                    f"for {self._low_streak} samples"
                )
                target = max(k - config.step, config.min_parallelism)
        if reason is None or target == k:
            return None

        started = manager.rescale(target)
        decision = ScalingDecision(
            at=now,
            from_parallelism=k,
            to_parallelism=target,
            reason=reason,
            started=started,
        )
        self.decisions.append(decision)
        if started:
            self._last_action_at = now
            self._low_streak = 0
        return decision
