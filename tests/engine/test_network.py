"""Tests for the NIC/bandwidth/latency network model."""

import pytest

from repro.engine import Cluster, Simulator
from repro.engine.network import FifoChannel, Network


def test_fifo_channel_rate_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoChannel(sim, 0.0)
    with pytest.raises(ValueError):
        FifoChannel(sim, -1.0)


def test_fifo_channel_serializes_back_to_back():
    sim = Simulator()
    channel = FifoChannel(sim, rate=100.0)  # 100 bytes/s
    done = []
    sim.post_at(channel.reserve(50), done.append, "first")  # 0.5 s
    sim.post_at(channel.reserve(100), done.append, "second")  # +1.0 s
    sim.run()
    assert done == ["first", "second"]
    assert sim.now == pytest.approx(1.5)


def test_fifo_channel_infinite_rate():
    sim = Simulator()
    channel = FifoChannel(sim, rate=None)
    done = []
    sim.post_at(channel.reserve(10**9), done.append, "x")
    sim.run()
    assert sim.now == 0.0
    assert done == ["x"]


def test_fifo_channel_reserve_respects_earliest():
    sim = Simulator()
    channel = FifoChannel(sim, rate=100.0)
    first = channel.reserve(100, earliest=2.0)
    assert first == pytest.approx(3.0)
    # Second reservation queues behind the first even though "now" is 0.
    second = channel.reserve(100)
    assert second == pytest.approx(4.0)


def _two_server_cluster(bandwidth_gbps=None, latency_s=0.001):
    sim = Simulator()
    cluster = Cluster(
        sim, 2, bandwidth_gbps=bandwidth_gbps, latency_s=latency_s
    )
    return sim, cluster


def test_transfer_pays_latency():
    sim, cluster = _two_server_cluster(bandwidth_gbps=None, latency_s=0.25)
    arrived = []
    cluster.transfer(
        cluster.server(0), cluster.server(1), 100, arrived.append, "m"
    )
    sim.run()
    assert arrived == ["m"]
    assert sim.now == pytest.approx(0.25)


def test_transfer_pays_bandwidth_twice():
    """Egress and ingress both serialize the payload."""
    sim, cluster = _two_server_cluster(bandwidth_gbps=8e-9, latency_s=0.0)
    # 8e-9 Gb/s == 1 byte/s
    arrived = []
    cluster.transfer(
        cluster.server(0), cluster.server(1), 3, arrived.append, "m"
    )
    sim.run()
    assert sim.now == pytest.approx(6.0)  # 3 s egress + 3 s ingress


def test_same_server_transfer_rejected():
    sim, cluster = _two_server_cluster()
    with pytest.raises(ValueError):
        cluster.transfer(
            cluster.server(0), cluster.server(0), 10, lambda: None
        )


def test_per_pair_fifo_ordering():
    sim, cluster = _two_server_cluster(bandwidth_gbps=1.0, latency_s=0.001)
    arrived = []
    for i in range(10):
        cluster.transfer(
            cluster.server(0), cluster.server(1), 1000, arrived.append, i
        )
    sim.run()
    assert arrived == list(range(10))


def test_incast_contention_on_ingress():
    """Two senders to one receiver share the receiver's ingress."""
    sim = Simulator()
    cluster = Cluster(sim, 3, bandwidth_gbps=8e-6, latency_s=0.0)
    # 8e-6 Gb/s = 1000 bytes/s per direction.
    arrived = []
    cluster.transfer(
        cluster.server(0), cluster.server(2), 1000, arrived.append, "a"
    )
    cluster.transfer(
        cluster.server(1), cluster.server(2), 1000, arrived.append, "b"
    )
    sim.run()
    # Each egress takes 1 s in parallel; ingress then serializes 2 x 1 s.
    assert sim.now == pytest.approx(3.0)
    assert sorted(arrived) == ["a", "b"]


def test_network_counters():
    sim, cluster = _two_server_cluster()
    cluster.transfer(cluster.server(0), cluster.server(1), 500, lambda: None)
    cluster.transfer(cluster.server(1), cluster.server(0), 300, lambda: None)
    sim.run()
    assert cluster.network.messages_sent == 2
    assert cluster.network.bytes_sent == 800


def test_inter_rack_latency():
    sim = Simulator()
    cluster = Cluster(
        sim,
        4,
        bandwidth_gbps=None,
        latency_s=0.001,
        num_racks=2,
        inter_rack_latency_s=0.5,
    )
    # Servers 0, 2 are rack 0; servers 1, 3 are rack 1.
    times = {}
    cluster.transfer(
        cluster.server(0), cluster.server(2), 1,
        lambda: times.__setitem__("same", sim.now),
    )
    cluster.transfer(
        cluster.server(0), cluster.server(1), 1,
        lambda: times.__setitem__("cross", sim.now),
    )
    sim.run()
    assert times["same"] == pytest.approx(0.001)
    assert times["cross"] == pytest.approx(0.5)


def test_cluster_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cluster(sim, 0)
    with pytest.raises(ValueError):
        Cluster(sim, 2, num_racks=0)
    with pytest.raises(ValueError):
        Network(sim, 100.0, latency_s=-1.0)
