"""What the control plane's wiring must keep, checked directly.

Three things outside ``core/manager.py`` depend on how it is wired,
so a change there breaks them silently instead of loudly:

- ``repro.faults.plan.RPC_STEPS`` lists the protocol steps an RPC
  fault may target; each is the event kind of one manager RPC leg
  (``repro.engine.simulator.event_kind``), which is what the injector
  matches, and fault plans draw steps in its order;
- ``manager.PHASES`` is the order the phase spans of a round open in —
  what the telemetry report, ``docs/PROTOCOL.md`` and DESIGN §8.3 call
  them;
- the agent wiring (predecessor counts, peers, successors) is derived
  by ``Manager._repatch_agents`` alone.

Plus the one recovery ROADMAP "Differential fuzzing across backends"
lists as reached only through an abort: a ``delta_base_mismatch`` met
on a round that commits.

No numpy here: the ``chaos`` CI job runs this file without it.
"""

import hashlib
import json
import os
import random
import re

from repro.core import Manager, ManagerConfig, RoutingTable, TableDelta
from repro.core.manager import PHASES
from repro.core.reconfiguration import (
    ACK_RECONF,
    GET_METRICS,
    SEND_METRICS,
    SEND_RECONF,
)
from repro.engine import (
    Cluster,
    ShuffleGrouping,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    count_chain,
    deploy,
)
from repro.engine.executor import SpoutExecutor
from repro.engine.operators import CountBolt, IteratorSpout
from repro.faults import RPC_STEPS, FaultInjector, FaultPlan, RpcFault
from repro.observability import MemorySink, attach_telemetry
from repro.testing.episode import generate_config
from repro.testing.rng import RngTree

N = 3
KEYS = 40
PROTOCOL_MD = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "PROTOCOL.md"
)


def _source(ctx):
    rng = random.Random(ctx.instance_index)
    for _ in range(12000):
        a = rng.randrange(KEYS)
        yield (a, a + 100)


def _deployed(topology=None, **config):
    if topology is None:
        topology = count_chain(
            _source, N, [TableFieldsGrouping(0), TableFieldsGrouping(1)]
        )
    sim = Simulator()
    deployment = deploy(sim, Cluster(sim, N), topology)
    manager = Manager(deployment, ManagerConfig(period_s=None, **config))
    return sim, deployment, manager


def _run_round(sim, manager, start=None):
    """Let statistics accumulate, run one round, return its record."""
    sim.run(until=sim.now + 0.02)
    done = []
    assert (start or manager.reconfigure)(on_complete=done.append)
    sim.run(until=sim.now + 0.05)
    assert done, "the round did not finish"
    return done[0]


# ----------------------------------------------------------------------
# (a) RPC_STEPS: the kinds of the manager's RPC legs
# ----------------------------------------------------------------------


def test_every_rpc_step_tags_one_manager_method():
    assert RPC_STEPS == tuple(
        sorted((GET_METRICS, SEND_METRICS, SEND_RECONF, ACK_RECONF))
    )
    for step in RPC_STEPS:
        tagged = [
            name
            for name, fn in vars(Manager).items()
            if getattr(fn, "event_kind", None) == step
        ]
        assert len(tagged) == 1, (
            f"{step!r} tags {tagged} on Manager: an RpcFault on that "
            f"step must match exactly one RPC leg"
        )


def test_fuzz_seeds_draw_the_fault_plans_they_always_drew():
    """Steps are drawn from ``RPC_STEPS`` in its order, which is the
    sorted order of the step → method-name map it replaced: seeds 0–9
    of the fuzz harness generate the same plans as under that map."""
    tree = RngTree(0)
    plans = [generate_config(tree, seed).fault_plan for seed in range(10)]
    digest = hashlib.sha256(
        json.dumps(plans, sort_keys=True).encode()
    ).hexdigest()
    assert digest == (
        "c8ad143583428034def453b93890d1244afb784df984f6222b5922b4113109d7"
    )


def test_one_rpc_fault_per_step_fires_on_every_step():
    sim, deployment, manager = _deployed()
    plan = FaultPlan(
        rpcs=[
            RpcFault("delay", step=step, delay_s=1.0e-3)
            for step in RPC_STEPS
        ]
    )
    injector = FaultInjector(plan).attach(deployment, manager)
    deployment.start()
    record = _run_round(sim, manager)
    assert record.completed_at is not None and not record.aborted
    fired = [target for _, action, target, _ in injector.log]
    assert sorted(fired) == sorted(RPC_STEPS)


# ----------------------------------------------------------------------
# (b) PHASES
# ----------------------------------------------------------------------


def _phase_spans(sink, record):
    """Names of the spans opened directly under ``record``'s round
    span, in emission order."""
    begins = [r for r in sink.records if r["type"] == "span_begin"]
    (round_span,) = [
        r["span"]
        for r in begins
        if r["name"] == "reconfiguration_round"
        and r["round"] == record.round_id
    ]
    return [r["name"] for r in begins if r["parent"] == round_span]


def test_phases_are_the_spans_a_committed_round_emits():
    sim, deployment, manager = _deployed()
    sink = MemorySink()
    attach_telemetry(deployment, manager, sink=sink)
    deployment.start()

    plain = _run_round(sim, manager)
    assert plain.completed_at is not None and not plain.is_rescale
    assert _phase_spans(sink, plain) == [
        phase for phase in PHASES if phase != "RESCALE_PROVISION"
    ]

    rescale = _run_round(
        sim, manager, lambda on_complete: manager.rescale(N + 1, on_complete)
    )
    assert rescale.completed_at is not None and rescale.is_rescale
    assert _phase_spans(sink, rescale) == list(PHASES)

    ended = {
        r["name"] for r in sink.records if r["type"] == "span_end"
    } - {"reconfiguration_round"}
    assert ended == set(PHASES)


def test_protocol_doc_lifecycle_lists_the_phases():
    """The ``[PHASE]`` tags of the "Round lifecycle" block of
    docs/PROTOCOL.md are ``PHASES``, in order."""
    with open(PROTOCOL_MD, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Round lifecycle", 1)[1].split("\n## ", 1)[0]
    block = section.split("```")[1]
    assert re.findall(r"\[([A-Z_]+)\]", block) == list(PHASES)


# ----------------------------------------------------------------------
# (c) agent wiring
# ----------------------------------------------------------------------


def _diamond():
    """S(3) -> A(3) -> B(3), plus a shuffled side spout T(2) -> A."""
    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(_source), parallelism=3)
    builder.spout("T", lambda: IteratorSpout(_source), parallelism=2)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=3,
        inputs={"S": TableFieldsGrouping(0), "T": ShuffleGrouping()},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=3,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def _wiring(manager):
    return {
        address: (
            agent,
            agent.predecessors_needed,
            list(agent.peers),
            list(agent.successors),
        )
        for address, agent in manager.agents.items()
    }


def test_agent_wiring_is_the_topologys_and_repatching_keeps_it():
    sim, deployment, manager = _deployed(_diamond())
    topology = deployment.topology
    wiring = _wiring(manager)
    assert list(wiring) == [
        (e.op_name, e.instance) for e in deployment.all_executors()
    ]
    for (op_name, instance), (agent, needed, peers, successors) in (
        wiring.items()
    ):
        executor = deployment.executor(op_name, instance)
        assert agent.executor is executor
        assert executor.control_handler == agent.handle
        if isinstance(executor, SpoutExecutor):
            assert needed == 1  # the manager's own PROPAGATE
        else:
            assert needed == sum(
                topology.operator(stream.src).parallelism
                for stream in topology.inputs_of(op_name)
            )
        assert peers == deployment.instances(op_name)
        assert successors == [
            dst
            for stream in topology.outputs_of(op_name)
            for dst in deployment.instances(stream.dst)
        ]
    assert wiring[("A", 0)][1] == 3 + 2
    assert wiring[("B", 2)][3] == []

    manager._repatch_agents()
    assert _wiring(manager) == wiring


# ----------------------------------------------------------------------
# (d) delta_base_mismatch without an abort
# ----------------------------------------------------------------------


def test_base_mismatch_on_a_committed_round_heals_at_the_next_push():
    """One source router holds a table the manager does not know of
    (ROADMAP "Differential fuzzing across backends"): the round's delta
    does not apply there. Today
    that is counted, the desynced router keeps its table, everyone
    else swaps and the round commits; the next forced push resyncs."""
    sim, deployment, manager = _deployed()
    deployment.start()
    first = _run_round(sim, manager)
    assert first.completed_at is not None

    sources = deployment.instances("S")
    odd_one, others = sources[0], sources[1:]
    foreign = RoutingTable({key: 0 for key in range(KEYS)})
    assert foreign != manager.current_tables["S->A"]
    odd_one.table_router("S->A").update_table(foreign)

    shipped = []
    on_reconf = manager.agents[("S", 0)].on_reconf

    def spy(payload):
        shipped.append(payload.edge_updates["S->A"].table)
        on_reconf(payload)

    manager.agents[("S", 0)].on_reconf = spy
    second = _run_round(sim, manager)
    assert second.completed_at is not None and not second.aborted
    (update,) = shipped
    assert isinstance(update, TableDelta) and not update.is_snapshot

    current = manager.current_tables["S->A"]
    anomalies = {
        e.instance: manager.agents[("S", e.instance)].anomalies
        for e in sources
    }
    assert anomalies[0]["delta_base_mismatch"] == 1
    assert odd_one.table_router("S->A").table == foreign
    for executor in others:
        assert anomalies[executor.instance]["delta_base_mismatch"] == 0
        assert executor.table_router("S->A").table == current

    manager._push_tables()
    for executor in sources:
        assert executor.table_router("S->A").table == current
