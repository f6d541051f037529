"""Rescale seams for non-table-routed streams (router edge-case fixes).

A rescaled operator's fan-out changes for *every* input stream, not
just the table-routed one the planner rewrites. Before the fix, a
shuffle/hash/PKG side input kept its old destination list (stale
references to pre-rescale width) and its old modulus — tuples kept
landing only on the original instances. These tests pin the repaired
behaviour and the fail-fast for routers without a resize seam.
"""

import random
from collections import Counter

import pytest

from repro.core import Manager, ManagerConfig
from repro.engine import (
    Cluster,
    CountBolt,
    CustomGrouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    ShuffleGrouping,
    Simulator,
    TableFieldsGrouping,
    TopologyBuilder,
    deploy,
)
from repro.engine.backends import ReconfigureAction
from repro.engine.grouping import stream_context
from repro.engine.operators import IteratorSpout
from repro.errors import RoutingError
from repro.testing.invariants import InvariantSuite

SPOUTS = 2
PER_SPOUT = 12000
KEYS = 40


def _source(ctx):
    rng = random.Random(500 + ctx.instance_index)
    for _ in range(PER_SPOUT):
        a = min(rng.randrange(KEYS), rng.randrange(KEYS))
        yield (a, a + 100)


def _ground_truth_totals():
    """Per-key totals at A over both spouts (table + side stream)."""
    truth = Counter()
    for i in range(SPOUTS):
        rng = random.Random(500 + i)
        for _ in range(PER_SPOUT):
            a = min(rng.randrange(KEYS), rng.randrange(KEYS))
            truth[a] += 2
    return truth


def _build(bolts, side_grouping):
    """S (table-routed) and T (``side_grouping``) both feed A, which
    forwards into a table-routed B (the manager needs a keyed input
    plus a routed output to instrument pair statistics)."""
    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(_source), parallelism=SPOUTS)
    builder.spout("T", lambda: IteratorSpout(_source), parallelism=SPOUTS)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=bolts,
        inputs={"S": TableFieldsGrouping(0), "T": side_grouping},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=bolts,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def _deployed(bolts, side_grouping):
    sim = Simulator()
    cluster = Cluster(sim, max(bolts, SPOUTS))
    deployment = deploy(sim, cluster, _build(bolts, side_grouping))
    manager = Manager(deployment, ManagerConfig(period_s=0.05))
    return sim, deployment, manager


def _rescale_with_retry(sim, manager, target, done):
    def attempt():
        if manager.rescale(target, on_complete=done.append):
            return
        if manager.tier_parallelism == target:
            return
        sim.schedule(0.005, attempt)

    attempt()


def _run_with_rescale(side_grouping, target):
    sim, deployment, manager = _deployed(2, side_grouping)
    suite = InvariantSuite(deployment, manager).attach()
    done = []
    manager.start()
    deployment.start()
    sim.schedule(0.08, _rescale_with_retry, sim, manager, target, done)
    sim.run(until=0.4)
    manager.stop()
    sim.run()  # drain
    return sim, deployment, manager, suite, done


@pytest.mark.parametrize(
    "side_grouping",
    [ShuffleGrouping(), PartialKeyGrouping(0)],
    ids=["shuffle", "partial-key"],
)
def test_side_input_follows_the_rescale(side_grouping):
    """Scale-out with a non-table side input: the side stream's
    sources must adopt the new destination list and modulus, the new
    instances must receive side traffic, and no tuple may be lost."""
    sim, deployment, manager, suite, done = _run_with_rescale(
        side_grouping, target=4
    )
    assert len(done) == 1 and not done[0].aborted
    assert suite.violations == []

    for spout in deployment.instances("T"):
        edge = spout.out_edge("T->A")
        # The regression: destinations froze at the pre-rescale width.
        assert len(edge.destinations) == 4
        dsts = {d.instance for d in edge.destinations}
        assert dsts == {0, 1, 2, 3}

    # New instances actually processed side traffic after the rescale.
    processed = deployment.metrics.processed
    assert any(
        processed.get(("A", i), 0) > 0 for i in (2, 3)
    ), "rescaled instances never received side-stream tuples"

    # Nothing lost: every emitted tuple (both streams) was counted.
    totals = Counter()
    for executor in deployment.instances("A"):
        for key, count in executor.operator.state.items():
            totals[key] += count
    assert totals == _ground_truth_totals()


def test_scale_in_retargets_side_input(side_grouping=ShuffleGrouping()):
    """Scale-in: the side stream must stop addressing retired
    instances (a stale destination list would deliver into executors
    being drained) and totals stay exact."""
    sim, deployment, manager, suite, done = _run_with_rescale(
        side_grouping, target=1
    )
    assert len(done) == 1 and not done[0].aborted
    assert suite.violations == []
    for spout in deployment.instances("T"):
        edge = spout.out_edge("T->A")
        assert [d.instance for d in edge.destinations] == [0]
    totals = Counter()
    for executor in deployment.instances("A"):
        for key, count in executor.operator.state.items():
            totals[key] += count
    assert totals == _ground_truth_totals()


def test_custom_grouping_fails_fast_on_rescale():
    """CustomGrouping routers have no resize seam: a rescale must
    raise a RoutingError naming the stream, not silently keep routing
    with the stale modulus."""
    grouping = CustomGrouping(
        lambda values, context: values[0] % len(context.dst_placements)
    )
    sim, deployment, manager = _deployed(2, grouping)
    done = []
    manager.start()
    deployment.start()
    sim.schedule(0.08, _rescale_with_retry, sim, manager, 4, done)
    with pytest.raises(RoutingError) as err:
        sim.run(until=0.4)
    message = str(err.value)
    assert "T->A" in message
    assert "resize" in message


def _refused_on(path):
    """Re-width a local-or-shuffle side input through one of the
    three paths that adopt a new width."""
    if path == "scripted-action":
        # what the fast backends do with a scripted rescale of A: every
        # router of every input of A takes the action (local-or-shuffle
        # has no batch form, so no fast backend gets as far)
        (side,) = [
            s for s in _build(2, LocalOrShuffleGrouping()).streams
            if s.name == "T->A"
        ]
        router = side.grouping.build_router(stream_context(side, 0, 0, [0, 1]))
        ReconfigureAction(1000, "S->A", None, 4).apply(router, side.name)
        return
    sim, deployment, manager = _deployed(2, LocalOrShuffleGrouping())
    if path == "push-tables":
        manager._push_tables(width=2)  # the forced push of an abort
        return
    manager.start()
    deployment.start()
    sim.schedule(0.08, _rescale_with_retry, sim, manager, 4, [])
    sim.run(until=0.4)


@pytest.mark.parametrize(
    "path", ["des-agent", "scripted-action", "push-tables"]
)
def test_every_rewidth_path_refuses_a_router_without_a_seam(path):
    """The DES agent at PROPAGATE, a scripted backend action and the
    abort's forced push all adopt a width through
    ``Router.resize``, so a side input that cannot follow one fails
    the same way on each (the forced push used to skip it)."""
    with pytest.raises(RoutingError) as err:
        _refused_on(path)
    assert str(err.value) == (
        "stream 'T->A': _LocalOrShuffleRouter has no resize seam, so it "
        "cannot follow a rescale"
    )
