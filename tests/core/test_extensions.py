"""Tests for the future-work extensions: the reconfiguration benefit
estimator and rack-aware hierarchical assignment."""

import pytest

from repro.core import KeyGraph, RoutingTable, plan_reconfiguration
from repro.core.assignment import RoutedStream
from repro.core.estimator import (
    Estimate,
    EstimatorConfig,
    ReconfigurationEstimator,
)
from repro.core.hierarchical import (
    assignment_quality,
    compute_hierarchical_assignment,
)
from repro.errors import PartitioningError


def _graph(pairs):
    graph = KeyGraph()
    for (k1, k2), count in pairs.items():
        graph.add_pair("S->A", k1, "A->B", k2, count)
    return graph


def _streams(n):
    return [
        RoutedStream("S->A", "S", "A", list(range(n))),
        RoutedStream("A->B", "A", "B", list(range(n))),
    ]


class TestEstimator:
    def test_predicted_locality_hash_baseline(self):
        graph = _graph({(f"k{i}", f"v{i}"): 10 for i in range(60)})
        estimator = ReconfigurationEstimator()
        locality = estimator.predicted_locality(graph, {}, _streams(4))
        assert locality == pytest.approx(0.25, abs=0.12)

    def test_predicted_locality_perfect_tables(self):
        graph = _graph({(f"k{i}", f"v{i}"): 10 for i in range(8)})
        tables = {
            "S->A": RoutingTable({f"k{i}": i % 2 for i in range(8)}),
            "A->B": RoutingTable({f"v{i}": i % 2 for i in range(8)}),
        }
        estimator = ReconfigurationEstimator()
        locality = estimator.predicted_locality(graph, tables, _streams(2))
        assert locality == 1.0

    def test_evaluate_reports_gain_and_cost(self):
        graph = _graph({(f"k{i}", f"v{i}"): 100 for i in range(12)})
        streams = _streams(2)
        plan = plan_reconfiguration(graph, streams, 2, {})
        estimator = ReconfigurationEstimator(
            EstimatorConfig(horizon_tuples=10_000)
        )
        estimate = estimator.evaluate(graph, plan, {}, streams)
        assert estimate.locality_after >= estimate.locality_before
        assert estimate.moved_keys == plan.total_moved_keys()
        assert estimate.cost_bytes == estimate.moved_keys * 64
        assert estimate.locality_gain >= 0.0

    def test_short_horizon_vetoes_deployment(self):
        graph = _graph({(f"k{i}", f"v{i}"): 100 for i in range(12)})
        streams = _streams(2)
        generous = ReconfigurationEstimator(
            EstimatorConfig(horizon_tuples=10_000_000)
        )
        stingy = ReconfigurationEstimator(
            EstimatorConfig(horizon_tuples=1)
        )
        plan = plan_reconfiguration(graph, streams, 2, {}, estimator=generous)
        assert not plan.vetoed
        assert plan.estimate == generous.evaluate(graph, plan, {}, streams)
        if plan.total_moved_keys() > 0:
            assert plan_reconfiguration(
                graph, streams, 2, {}, estimator=stingy
            ).vetoed

    def test_no_gain_means_no_benefit(self):
        graph = _graph({("a", "b"): 100})
        streams = _streams(2)
        plan = plan_reconfiguration(graph, streams, 2, {})
        estimator = ReconfigurationEstimator()
        # Deploying the same tables twice gains nothing.
        estimate = estimator.evaluate(graph, plan, plan.tables, streams)
        assert estimate.locality_gain == pytest.approx(0.0)
        assert estimate.benefit_bytes == 0.0

    def test_estimate_worthwhile_margins(self):
        estimate = Estimate(
            locality_before=0.2,
            locality_after=0.5,
            moved_keys=10,
            benefit_bytes=1000.0,
            cost_bytes=600.0,
        )
        assert estimate.worthwhile_with_margin(1.0)
        assert estimate.worthwhile_with_margin(1.5)
        assert not estimate.worthwhile_with_margin(2.0)


class TestManagerWithEstimator:
    def test_vetoed_round_keeps_hash_routing(self):
        import random

        from repro.core import Manager, ManagerConfig
        from repro.engine import (
            Cluster,
            CountBolt,
            Simulator,
            TableFieldsGrouping,
            TopologyBuilder,
            deploy,
        )
        from repro.engine.operators import IteratorSpout

        def source(ctx):
            rng = random.Random(ctx.instance_index)
            for _ in range(20000):
                key = rng.randrange(8)
                yield (key, key + 100)

        builder = TopologyBuilder()
        builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
        builder.bolt(
            "A", lambda: CountBolt(0), parallelism=2,
            inputs={"S": TableFieldsGrouping(0)},
        )
        builder.bolt(
            "B", lambda: CountBolt(1, forward=False), parallelism=2,
            inputs={"A": TableFieldsGrouping(1)},
        )
        sim = Simulator()
        deployment = deploy(sim, Cluster(sim, 2), builder.build())
        manager = Manager(
            deployment,
            ManagerConfig(
                period_s=0.05,
                estimator=ReconfigurationEstimator(
                    EstimatorConfig(horizon_tuples=1)  # never worth it
                ),
            ),
        )
        manager.start()
        deployment.start()
        sim.run(until=0.2)
        manager.stop()
        sim.run()
        effective = [r for r in manager.completed_rounds if r.plan]
        assert effective
        assert all(r.vetoed for r in effective)
        assert manager.current_tables == {}  # nothing deployed


class TestHierarchical:
    def _correlated_graph(self, groups=8, weight=100):
        graph = KeyGraph()
        for i in range(groups):
            graph.add_pair("S->A", f"k{i}", "A->B", f"v{i}", weight + i)
        return graph

    def test_validation(self):
        graph = self._correlated_graph()
        with pytest.raises(PartitioningError):
            compute_hierarchical_assignment(graph, [[0, 1], [1, 2]])
        with pytest.raises(PartitioningError):
            compute_hierarchical_assignment(graph, [[0], []])
        with pytest.raises(PartitioningError):
            compute_hierarchical_assignment(graph, [])

    def test_single_rack_equals_flat_partitioning(self):
        graph = self._correlated_graph()
        assignment = compute_hierarchical_assignment(graph, [[0, 1, 2]])
        assert set(assignment.parts.values()) <= {0, 1, 2}
        quality = assignment_quality(graph, assignment, [[0, 1, 2]])
        assert quality.same_server == pytest.approx(1.0)

    def test_two_racks_assignment_covers_all_servers_keys(self):
        graph = self._correlated_graph(groups=12)
        racks = [[0, 1], [2, 3]]
        assignment = compute_hierarchical_assignment(graph, racks)
        assert len(assignment.parts) == 24
        assert set(assignment.parts.values()) <= {0, 1, 2, 3}

    def test_correlated_pairs_stay_server_local(self):
        graph = self._correlated_graph(groups=12)
        racks = [[0, 1], [2, 3]]
        assignment = compute_hierarchical_assignment(graph, racks)
        quality = assignment_quality(graph, assignment, racks)
        assert quality.same_server > 0.9

    def test_rack_locality_beats_flat_when_servers_are_tight(self):
        """A clique of keys too heavy for one server: hierarchical
        placement keeps it inside one rack, flat partitioning may
        spread it across racks."""
        graph = KeyGraph()
        # One tight community of 6 keys, pairwise linked.
        for i in range(6):
            for j in range(6):
                graph.add_pair("S->A", f"k{i}", "A->B", f"v{j}", 50)
        # Background singletons to fill the other servers.
        for i in range(30):
            graph.add_pair("S->A", f"x{i}", "A->B", f"y{i}", 20)
        racks = [[0, 1], [2, 3]]
        hierarchical = compute_hierarchical_assignment(graph, racks, seed=1)
        quality = assignment_quality(graph, hierarchical, racks)
        # Whatever cannot be server-local should mostly stay rack-local.
        assert quality.cross_rack < 0.35
        assert quality.weighted_cost() <= (
            quality.same_rack + quality.cross_rack
        ) * 4.0

    def test_quality_empty_graph(self):
        graph = KeyGraph()
        assignment = compute_hierarchical_assignment(
            graph, [[0], [1]]
        )
        quality = assignment_quality(graph, assignment, [[0], [1]])
        assert quality.same_server == 1.0
        assert quality.weighted_cost() == 0.0
