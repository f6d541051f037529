"""Tests for acking/flow control and the metrics hub."""

import pytest

from repro.engine import Simulator
from repro.engine.acker import Acker
from repro.engine.metrics import MetricsHub, StreamCounters, ThroughputSampler
from repro.errors import SimulationError


def test_acker_single_chain():
    sim = Simulator()
    acker = Acker(sim, ack_delay_s=0.01)
    acked = []
    acker.register(1, lambda: acked.append(1))
    assert acker.in_flight == 1
    acker.on_processed(1, emitted=1)  # hop 1: one child
    acker.on_processed(1, emitted=0)  # hop 2: sink
    assert acker.in_flight == 0
    sim.run()
    assert acked == [1]
    assert sim.now == pytest.approx(0.01)
    assert acker.completed == 1


def test_acker_fan_out_tree():
    sim = Simulator()
    acker = Acker(sim, ack_delay_s=0.0)
    acked = []
    acker.register(7, lambda: acked.append(7))
    acker.on_processed(7, emitted=3)  # splits into 3
    for _ in range(3):
        assert acker.in_flight == 1
        acker.on_processed(7, emitted=0)
    sim.run()
    assert acked == [7]


def test_acker_duplicate_root_rejected():
    acker = Acker(Simulator(), 0.0)
    acker.register(1, lambda: None)
    with pytest.raises(SimulationError):
        acker.register(1, lambda: None)


def test_acker_unknown_root_ignored():
    acker = Acker(Simulator(), 0.0)
    acker.on_processed(99, emitted=1)  # silently ignored
    assert acker.in_flight == 0


def test_stream_counters_locality_and_delta():
    counters = StreamCounters()
    assert counters.locality() == 1.0  # vacuous
    counters.local_tuples = 3
    counters.remote_tuples = 1
    assert counters.locality() == 0.75
    snapshot = counters.copy()
    counters.local_tuples = 5
    counters.remote_tuples = 5
    delta = counters.minus(snapshot)
    assert delta.local_tuples == 2
    assert delta.remote_tuples == 4
    assert delta.locality() == pytest.approx(2 / 6)


def _processed(hub, op, instance):
    """One processed tuple, tallied as an executor tallies it."""
    hub.processed[(op, instance)] += 1


def test_metrics_aggregates():
    hub = MetricsHub()
    for instance in (0, 0, 1):
        hub.processed[("B", instance)] += 1
    assert hub.processed_total("B") == 3
    hub.emitted[("A", 0)] += 1
    assert hub.emitted_total("A") == 1
    for instance in (0, 0, 1):
        hub.received[("B", instance)] += 1
    assert hub.received_per_instance("B", 3) == [2, 1, 0]
    assert hub.load_balance("B", 3) == pytest.approx(2 / 1.0)


def test_metrics_load_balance_empty():
    hub = MetricsHub()
    assert hub.load_balance("B", 4) == 1.0


def test_metrics_locality_overall():
    hub = MetricsHub()
    hub.streams["S->A"].local_tuples += 1
    hub.streams["S->A"].remote_tuples += 1
    hub.streams["A->B"].remote_tuples += 1
    assert hub.locality("S->A") == 0.5
    assert hub.locality() == pytest.approx(1 / 3)
    assert hub.locality("A->B") == 0.0


def test_throughput_sampler():
    sim = Simulator()
    hub = MetricsHub()
    sampler = ThroughputSampler(sim, hub, "B", interval_s=1.0)
    sampler.start()
    # 10 tuples in the first second, 20 in the second.
    for i in range(10):
        sim.schedule(0.5, _processed, hub, "B", 0)
    for i in range(20):
        sim.schedule(1.5, _processed, hub, "B", 0)
    sim.run(until=3.0)
    assert [rate for _, rate in sampler.samples] == [10.0, 20.0, 0.0]


def test_sampler_interval_validation():
    with pytest.raises(ValueError):
        ThroughputSampler(Simulator(), MetricsHub(), "B", interval_s=0.0)
