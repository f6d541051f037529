"""Seeded random fault-plan generation for the fuzz harness.

:func:`generate_fault_plan` draws a :class:`~repro.faults.plan.FaultPlan`
from a caller-supplied ``random.Random``, so that a single seed fully
determines the chaos a fuzz episode experiences (repro.testing derives
that RNG from the episode seed).

The generator is *conservation-safe by construction*: it only emits
fault combinations under which the protocol's state-total invariant is
expected to hold, so any violation a fuzz run finds is a real bug, not
an artefact of an unrecoverable fault:

- MIGRATE messages carry extracted state. Dropping one — or reordering
  it into a hold that may never redeliver — destroys counts by design,
  so MIGRATE is only ever *delayed* or *duplicated* (both absorbed by
  the agent's per-(round, sender) dedup and stale-install paths).
- PROPAGATE carries no state, so it may additionally be dropped or
  reordered; the manager's round deadline aborts the wedged round.
- RPC legs may be dropped or delayed freely (they never route data).
- Link delays are restricted to control traffic.
- Crashes lose a POI's state by definition; they are generated only
  when ``allow_crashes=True``, and callers must then disarm any
  conservation check.

The plan is also round-trippable to plain JSON data
(:func:`fault_plan_to_dict` / :func:`fault_plan_from_dict`) so repro
bundles can embed the exact plan alongside the seed.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from repro.faults.plan import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    RPC_STEPS,
    ControlFault,
    CrashAt,
    FaultPlan,
    LinkDelay,
    RpcFault,
)

#: actions that preserve the state-total invariant, per message kind
SAFE_CONTROL_ACTIONS = {
    "PROPAGATE": (DROP, DELAY, DUPLICATE, REORDER),
    "MIGRATE": (DELAY, DUPLICATE),
}


def generate_fault_plan(
    rng: random.Random,
    *,
    ops: Sequence[str] = ("A", "B"),
    parallelism: int = 2,
    servers: int = 2,
    max_rules: int = 4,
    allow_crashes: bool = False,
    horizon_s: float = 0.5,
) -> FaultPlan:
    """Draw a deterministic, conservation-safe fault plan.

    Parameters
    ----------
    rng:
        Sole source of randomness; same state → same plan.
    ops:
        Stateful operators rules may target (``dst_op``); each rule may
        also stay unscoped (match any destination).
    parallelism:
        Instances per op, bounding ``dst_instance`` draws.
    servers:
        Cluster size, bounding link-delay endpoints.
    max_rules:
        Upper bound on the number of rules (>= 1 rule is always drawn
        so a "chaotic" episode is never silently fault-free).
    allow_crashes:
        Also draw crash-on-arrival and timed crashes. These destroy
        state — the caller must disarm conservation checking.
    horizon_s:
        Rough episode length; delays and crash times scale with it.
    """
    n_rules = rng.randint(1, max(1, max_rules))
    plan = FaultPlan()
    kinds = ["control", "control", "rpc", "link"]  # bias toward control
    if allow_crashes:
        kinds.append("crash")
    for _ in range(n_rules):
        kind = rng.choice(kinds)
        if kind == "control":
            plan.control.append(
                _random_control_fault(
                    rng, ops, parallelism, allow_crashes, horizon_s
                )
            )
        elif kind == "rpc":
            plan.rpcs.append(_random_rpc_fault(rng, horizon_s))
        elif kind == "link":
            plan.links.append(_random_link_delay(rng, servers, horizon_s))
        else:
            plan.crashes.append(
                _random_crash(rng, ops, parallelism, horizon_s)
            )
    plan.validate()
    return plan


def _random_control_fault(
    rng: random.Random,
    ops: Sequence[str],
    parallelism: int,
    allow_crashes: bool,
    horizon_s: float,
) -> ControlFault:
    msg_kind = rng.choice(("PROPAGATE", "PROPAGATE", "MIGRATE"))
    actions = list(SAFE_CONTROL_ACTIONS[msg_kind])
    if allow_crashes:
        actions.append(CRASH)
    action = rng.choice(actions)
    dst_op: Optional[str] = rng.choice([None, *ops])
    dst_instance: Optional[int] = (
        rng.randrange(parallelism) if dst_op is not None and rng.random() < 0.5
        else None
    )
    return ControlFault(
        action=action,
        kind=msg_kind,
        dst_op=dst_op,
        dst_instance=dst_instance,
        max_matches=rng.randint(1, 2),
        delay_s=_small_delay(rng, horizon_s) if action == DELAY else 0.0,
        down_s=_small_delay(rng, horizon_s) if action == CRASH else 0.0,
    )


def _random_rpc_fault(rng: random.Random, horizon_s: float) -> RpcFault:
    action = rng.choice((DROP, DELAY))
    return RpcFault(
        action=action,
        step=rng.choice([None, *RPC_STEPS]),
        max_matches=rng.randint(1, 2),
        delay_s=_small_delay(rng, horizon_s) if action == DELAY else 0.0,
    )


def _random_link_delay(
    rng: random.Random, servers: int, horizon_s: float
) -> LinkDelay:
    src = rng.choice([None, rng.randrange(servers)])
    dst = rng.choice([None, rng.randrange(servers)])
    return LinkDelay(
        src_server=src,
        dst_server=dst,
        extra_s=_small_delay(rng, horizon_s),
        control_only=True,
        max_matches=rng.randint(1, 4),
    )


def _random_crash(
    rng: random.Random,
    ops: Sequence[str],
    parallelism: int,
    horizon_s: float,
) -> CrashAt:
    return CrashAt(
        op=rng.choice(list(ops)),
        instance=rng.randrange(parallelism),
        at_s=rng.uniform(0.05, max(0.1, horizon_s * 0.8)),
        down_s=_small_delay(rng, horizon_s),
    )


def _small_delay(rng: random.Random, horizon_s: float) -> float:
    """A delay between ~1% and ~25% of the episode horizon — long
    enough to push deliveries past a round deadline sometimes, short
    enough that episodes still quiesce."""
    return rng.uniform(0.01, 0.25) * horizon_s


# ----------------------------------------------------------------------
# JSON round-tripping (repro bundles embed the exact plan)
# ----------------------------------------------------------------------

_RULE_TYPES = {
    "control": ControlFault,
    "rpcs": RpcFault,
    "links": LinkDelay,
    "crashes": CrashAt,
}


def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, List[dict]]:
    """Serialize a plan to JSON-ready data (runtime ``matched``
    counters are stripped — a deserialized plan starts fresh)."""
    out: Dict[str, List[dict]] = {}
    for field_name in _RULE_TYPES:
        rules = []
        for rule in getattr(plan, field_name):
            data = asdict(rule)
            data.pop("matched", None)
            rules.append(data)
        out[field_name] = rules
    return out


def fault_plan_from_dict(data: Dict[str, List[dict]]) -> FaultPlan:
    """Rebuild a plan serialized by :func:`fault_plan_to_dict`."""
    plan = FaultPlan()
    for field_name, rule_type in _RULE_TYPES.items():
        for entry in data.get(field_name, []):
            entry = dict(entry)
            entry.pop("matched", None)
            getattr(plan, field_name).append(rule_type(**entry))
    plan.validate()
    return plan
