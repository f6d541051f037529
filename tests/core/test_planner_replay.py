"""The manager decides nothing outside the planner.

DES episodes run under a live manager — plain, hybrid, estimator-armed
and rescaling. Every finished round is then re-planned with no
simulator: ``plan_reconfiguration`` on the round's recorded key graph,
the tables the manager held before the round and the round's seed must
return exactly the tables, migrations, split sets and veto the manager
acted on.
"""

import pytest

from repro.core import Manager, ManagerConfig, plan_reconfiguration
from repro.core.assignment import HybridConfig
from repro.core.estimator import EstimatorConfig, ReconfigurationEstimator
from repro.engine import Cluster, Simulator, deploy
from repro.testing.episode import attempt_rescale
from repro.workloads.pairs import PairsConfig, PairsWorkload

N = 3
UNTIL_S = 0.1


def _replay(manager, record, held):
    """Plan ``record``'s round again from its inputs alone."""
    config = manager.config
    plain = not record.is_rescale
    # A committed rescale has swapped in its post-rescale stream view.
    streams = manager.routed_streams
    return plan_reconfiguration(
        record.keygraph,
        streams,
        len(streams[0].dst_placements),
        held,
        imbalance=config.imbalance,
        seed=config.seed + record.round_id,
        max_edges=config.max_edges,
        hybrid=config.hybrid if plain else None,
        estimator=config.estimator if plain else None,
    )


def _run(config, hybrid=False, rescales=()):
    """Run one fault-free episode; return the manager and the rounds
    whose plan was replayed."""
    sim = Simulator()
    workload = PairsWorkload(
        PairsConfig(
            parallelism=N, keys=32, exponent=1.2, seed=5,
            tuples_per_instance=4000,
        )
    )
    deployment = deploy(
        sim, Cluster(sim, N), workload.online_topology(hybrid=hybrid)
    )
    manager = Manager(deployment, config)
    held = {}
    replayed = []

    def observe(record):
        assert not record.aborted
        if record.plan is not None:
            plan = _replay(manager, record, held)
            used = record.plan
            assert plan.tables == used.tables
            assert plan.predicted_locality == used.predicted_locality
            assert plan.split_sets == record.split_sets
            assert plan.vetoed == record.vetoed
            assert plan.estimate == used.estimate
            if record.is_rescale:
                assert used.migrations == {}
            else:
                assert plan.migrations == used.migrations
            replayed.append(record)
            if not record.vetoed:
                held.update(used.tables)
        assert manager.current_tables == held

    manager.round_observers.append(observe)
    deployment.start()
    manager.start()
    for at_s, width in rescales:
        sim.schedule(at_s, attempt_rescale, sim, manager, width, UNTIL_S)
    sim.run(until=UNTIL_S)
    manager.stop()
    sim.run()
    deployment.close()
    return manager, replayed


def test_plain_rounds_replay():
    manager, replayed = _run(ManagerConfig(period_s=0.01, seed=3))
    assert sum(r.completed_at is not None for r in replayed) >= 2
    assert any(r.plan.total_moved_keys() for r in replayed)


def test_bounded_statistics_rounds_replay():
    _, replayed = _run(ManagerConfig(period_s=0.01, seed=3, max_edges=20))
    assert len(replayed) >= 2


def test_hybrid_rounds_replay():
    config = ManagerConfig(
        period_s=0.01,
        seed=3,
        hybrid=HybridConfig(hot_fraction=0.5, split_width=2),
    )
    _, replayed = _run(config, hybrid=True)
    assert len(replayed) >= 2
    assert any(r.split_sets for r in replayed)


def test_vetoed_rounds_replay():
    estimator = ReconfigurationEstimator(EstimatorConfig(horizon_tuples=1))
    manager, replayed = _run(
        ManagerConfig(period_s=0.01, seed=3, estimator=estimator)
    )
    assert replayed and all(r.vetoed for r in replayed)
    assert manager.current_tables == {}


@pytest.mark.parametrize("width", [2, 4])
def test_rescale_rounds_replay(width):
    manager, replayed = _run(
        ManagerConfig(period_s=0.01, seed=3), rescales=[(0.035, width)]
    )
    rescaled = [r for r in replayed if r.is_rescale]
    assert len(rescaled) == 1 and rescaled[0].completed_at is not None
    assert manager.tier_parallelism == width
    assert any(not r.is_rescale for r in replayed)
