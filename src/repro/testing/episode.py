"""One fuzz episode: a seeded build-run-check cycle.

An *episode* is the unit of fuzzing and of replay: from one
:class:`EpisodeConfig` (itself derived from a single seed) it builds a
cluster, a :class:`~repro.workloads.pairs.PairsWorkload` topology, a
manager with periodic reconfiguration, a conservation-safe fault plan,
and the full :class:`~repro.testing.invariants.InvariantSuite`; runs
the simulation to quiescence; and returns every violation plus the
simulator's event-sequence fingerprint.

Because every random decision flows from ``EpisodeConfig.seed``
through the :class:`~repro.testing.rng.RngTree` (and the config itself
is JSON-round-trippable), running the same config twice — in the same
or another process — produces the identical fingerprint, telemetry
trace, and violations. That is what makes a repro bundle a *proof*:
replaying it re-executes the failure, event for event.

``inject`` arms a deliberate bug (for testing the harness itself):

- ``"double_migrate"`` — one POI installs every migrated state batch
  twice, violating exactly-once migration and conservation;
- ``"held_leak"`` — one POI silently skips its first key release,
  leaking a held-key buffer past round end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.assignment import HybridConfig
from repro.core.compact_table import CompactTableConfig
from repro.core.manager import Manager, ManagerConfig
from repro.engine.cluster import Cluster
from repro.engine.runner import deploy
from repro.engine.simulator import Simulator, event_kind
from repro.faults import (
    FaultInjector,
    fault_plan_from_dict,
    fault_plan_to_dict,
    generate_fault_plan,
)
from repro.observability import MemorySink, attach_telemetry
from repro.testing.invariants import InvariantSuite, Violation
from repro.testing.rng import RngTree
from repro.workloads.pairs import PairsConfig, PairsWorkload

#: deliberate-bug names accepted by ``EpisodeConfig.inject``
INJECTIONS = ("double_migrate", "held_leak")


@dataclass
class EpisodeConfig:
    """Everything that determines one episode, JSON-round-trippable."""

    seed: int
    parallelism: int = 2
    keys: int = 32
    exponent: float = 1.0
    correlation: float = 0.7
    tuples_per_instance: int = 800
    period_s: float = 0.05
    round_timeout_s: float = 0.03
    rpc_latency_s: float = 1.0e-3
    imbalance: float = 1.03
    until_s: float = 0.3
    #: serialized fault plan (repro.faults.fault_plan_to_dict); empty
    #: dict = fault-free episode
    fault_plan: Dict = field(default_factory=dict)
    allow_crashes: bool = False
    #: scripted elastic rescales, ``[at_s, new_parallelism]`` pairs;
    #: each retries until the manager is free (or the run ends), so a
    #: rescale landing mid-round is exercised, not silently dropped
    rescales: List[List] = field(default_factory=list)
    #: hybrid routing: sources use HybridTableFieldsGrouping and the
    #: manager splits heavy hitters with these [hot_fraction,
    #: split_width, max_split_keys] settings; empty list = disabled
    hybrid: List = field(default_factory=list)
    #: ship PROPAGATE as TableDelta diffs against the receivers' base
    #: (docs/PROTOCOL.md); mirrors the ManagerConfig default
    delta_propagation: bool = True
    #: compact (fingerprint + front-filter) data-plane tables at the
    #: wire boundary, with the default CompactTableConfig knobs
    compact_tables: bool = False
    #: deliberate bug to arm (harness self-test); see INJECTIONS
    inject: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EpisodeConfig":
        return cls(**data)


@dataclass
class EpisodeResult:
    """Outcome of one episode."""

    config: EpisodeConfig
    violations: List[Violation]
    #: the simulator's event-sequence CRC (replay must match)
    fingerprint: int
    rounds: int
    rounds_completed: int
    rounds_aborted: int
    faults_injected: int
    telemetry_records: int
    #: simulated clock at the end of the drain (for derived rates)
    sim_now_s: float = 0.0
    #: total tuples the expected-count oracle says were processed
    tuples_processed: int = 0
    #: the in-memory telemetry sink, for trace-level comparisons
    sink: MemorySink = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not self.violations


def generate_config(
    tree: RngTree, seed: int, rescale: bool = False, hybrid: bool = False
) -> EpisodeConfig:
    """Draw one episode's parameters from the RNG tree.

    ``seed`` is the episode seed (also stored in the config); all
    shape decisions come from the tree so the mapping seed → episode
    is stable across harness versions of the same tree layout.
    ``rescale`` additionally draws scripted mid-stream rescales, and
    ``hybrid`` draws hot-key-splitting settings, each from a *separate*
    RNG stream, so seed → base episode stays identical with and
    without either flag.
    """
    rng = tree.rng("episode", seed)
    parallelism = rng.choice((2, 2, 3, 4))
    until_s = rng.uniform(0.25, 0.4)
    config = EpisodeConfig(
        seed=seed,
        parallelism=parallelism,
        keys=rng.choice((16, 24, 32, 48)),
        exponent=rng.uniform(0.6, 1.4),
        correlation=rng.uniform(0.4, 0.95),
        tuples_per_instance=rng.randint(500, 1200),
        period_s=rng.uniform(0.04, 0.09),
        round_timeout_s=rng.uniform(0.02, 0.05),
        imbalance=rng.choice((1.03, 1.1, 1.2)),
        until_s=until_s,
    )
    if rng.random() < 0.8:  # most episodes run chaotic
        plan = generate_fault_plan(
            tree.rng("faults", seed),
            ops=("A", "B"),
            parallelism=parallelism,
            servers=parallelism,
            max_rules=4,
            allow_crashes=False,
            horizon_s=until_s,
        )
        config.fault_plan = fault_plan_to_dict(plan)
    if rescale:
        config.rescales = draw_rescales(tree.rng("rescale", seed), until_s)
    if hybrid:
        config.hybrid = draw_hybrid(tree.rng("hybrid", seed))
    return config


def draw_rescales(rng, until_s: float) -> List[List]:
    """One or two scripted rescales (``EpisodeConfig.rescales``), each
    at a time in ``[0.05, 0.8 * until_s)`` to a width of 1 to 5."""
    actions = []
    for _ in range(rng.choice((1, 1, 2))):
        at_s = rng.uniform(0.05, until_s * 0.8)
        target = rng.choice((1, 2, 3, 4, 5))
        actions.append([round(at_s, 6), target])
    return sorted(actions)


def draw_hybrid(rng) -> List:
    """Hot-key-splitting settings (``EpisodeConfig.hybrid``)."""
    return [
        round(rng.uniform(0.3, 0.8), 6),  # hot_fraction
        rng.choice((2, 2, 3)),  # split_width
        rng.choice((2, 4, 8)),  # max_split_keys
    ]


def run_episode(config: EpisodeConfig) -> EpisodeResult:
    """Build, run to quiescence, and check one episode."""
    sim = Simulator()
    sim.enable_fingerprint()
    cluster = Cluster(sim, config.parallelism)
    workload = PairsWorkload(
        PairsConfig(
            parallelism=config.parallelism,
            keys=config.keys,
            exponent=config.exponent,
            correlation=config.correlation,
            seed=config.seed,
            tuples_per_instance=config.tuples_per_instance,
        )
    )
    hybrid = None
    if config.hybrid:
        hot_fraction, split_width, max_split_keys = config.hybrid
        hybrid = HybridConfig(
            hot_fraction=float(hot_fraction),
            split_width=int(split_width),
            max_split_keys=int(max_split_keys),
        )
    deployment = deploy(
        sim, cluster, workload.online_topology(hybrid=hybrid is not None)
    )
    manager = Manager(
        deployment,
        ManagerConfig(
            period_s=config.period_s,
            imbalance=config.imbalance,
            rpc_latency_s=config.rpc_latency_s,
            round_timeout_s=config.round_timeout_s,
            seed=config.seed,
            hybrid=hybrid,
            delta_propagation=config.delta_propagation,
            compact_tables=(
                CompactTableConfig() if config.compact_tables else None
            ),
        ),
    )
    sink = MemorySink()
    telemetry = attach_telemetry(deployment, manager, sink=sink)
    suite = InvariantSuite(
        deployment,
        manager,
        check_conservation=not config.allow_crashes,
    ).attach()

    injector = None
    if config.fault_plan:
        plan = fault_plan_from_dict(config.fault_plan)
        injector = FaultInjector(plan).attach(deployment, manager)

    if config.inject is not None:
        _arm_injection(config.inject, deployment)

    deployment.start()
    manager.start()
    for at_s, target in config.rescales:
        sim.schedule(
            at_s, attempt_rescale, sim, manager, int(target), config.until_s
        )
    sim.run(until=config.until_s)
    manager.stop()
    sim.run()  # drain: spouts are finite, rounds deadline out
    a_counts, b_counts = workload.expected_counts()
    suite.final_check({"A": a_counts, "B": b_counts})
    telemetry.flush()
    deployment.close()

    return EpisodeResult(
        config=config,
        violations=list(suite.violations),
        fingerprint=sim.fingerprint,
        rounds=len(manager.rounds),
        rounds_completed=len(manager.completed_rounds),
        rounds_aborted=len(manager.aborted_rounds),
        faults_injected=injector.injected if injector is not None else 0,
        telemetry_records=len(sink.records),
        sim_now_s=sim.now,
        tuples_processed=(
            sum(a_counts.values()) + sum(b_counts.values())
        ),
        sink=sink,
    )


@event_kind("RESCALE_ATTEMPT")
def attempt_rescale(sim, manager, target, deadline_s) -> None:
    """Start a scripted rescale, retrying while the manager is busy.

    Mirrors what an operator (or the elasticity controller) does: a
    rescale that lands mid-round is re-attempted shortly after instead
    of being dropped, so fuzzing exercises the busy/again path too.
    Retries stop once the tier is already at ``target`` or the episode
    deadline has passed, so the drain phase still terminates.
    """
    if manager.tier_parallelism == target or sim.now >= deadline_s:
        return
    if not manager.rescale(target):
        sim.schedule(0.005, attempt_rescale, sim, manager, target, deadline_s)


def _arm_injection(name: str, deployment) -> None:
    """Wire a deliberate bug into the deployment. Applied *after* the
    invariant suite wraps the seams, so the suite observes the buggy
    behaviour (that is the point: the harness must catch it)."""
    if name not in INJECTIONS:
        raise ValueError(
            f"unknown injection {name!r}; one of {INJECTIONS}"
        )
    victim = deployment.instances("B")[0]
    if name == "double_migrate":
        orig_install = victim.install_state

        def double_install(entries, _orig=orig_install):
            _orig(entries)
            if entries:
                _orig(entries)

        victim.install_state = double_install
    elif name == "held_leak":
        orig_release = victim.release_key
        state = {"skipped": False}

        def leaky_release(key, _orig=orig_release):
            if not state["skipped"]:
                state["skipped"] = True
                return
            _orig(key)

        victim.release_key = leaky_release
