"""Unit and smoke tests: the big-keys scale workload."""

from collections import Counter

import pytest

from repro.core import CompactRoutingTable, TableDelta
from repro.core.table_delta import snapshot_wire_bytes
from repro.engine import Cluster, Simulator, deploy
from repro.errors import WorkloadError
from repro.workloads import BigKeysConfig, BigKeysWorkload


def _small(**overrides):
    defaults = dict(
        parallelism=3,
        num_keys=5000,
        table_coverage=0.6,
        churn_keys=100,
        tuples_per_instance=500,
    )
    defaults.update(overrides)
    return BigKeysWorkload(BigKeysConfig(**defaults))


def test_config_validation():
    with pytest.raises(WorkloadError):
        BigKeysConfig(num_keys=0)
    with pytest.raises(WorkloadError):
        BigKeysConfig(table_coverage=1.5)
    with pytest.raises(WorkloadError):
        BigKeysConfig(churn_keys=-1)


def test_table_size_and_balance():
    workload = _small()
    table = workload.make_table(0)
    assert len(table) == workload.table_size == 3000
    owners = Counter(owner for _, owner in table.items())
    assert max(owners.values()) - min(owners.values()) <= 1


def test_epochs_churn_a_fixed_key_count():
    workload = _small()
    for epoch in range(3):
        old = workload.make_table(epoch)
        new = workload.make_table(epoch + 1)
        moved = old.moved_keys(new, lambda key: -1)
        assert len(moved) == workload.config.churn_keys
        # deltas stay churn-sized regardless of table size
        delta = TableDelta.diff(old, new)
        assert not delta.is_snapshot
        assert delta.num_changes == workload.config.churn_keys
    # ... on the wire too: ten times the keys cost a delta about the
    # same bytes per round, and a full snapshot several times more
    big = _small(num_keys=50_000)
    big_old = big.make_table(0)
    big_delta = TableDelta.diff(big_old, big.make_table(1))
    assert big_delta.wire_bytes() < 2 * delta.wire_bytes()
    assert snapshot_wire_bytes(big_old) > 5 * snapshot_wire_bytes(old)


def test_keys_are_stable_and_fixed_width():
    workload = _small()
    assert workload.key(42) == "user-0000042"
    assert len(workload.key(0)) == len(workload.key(4999))


def test_uncovered_keys_exercise_the_filter():
    workload = _small()
    compact = CompactRoutingTable.from_table(workload.make_table(0))
    size = workload.table_size
    misses = [workload.key(i) for i in range(size, size + 500)]
    false_routes = sum(1 for k in misses if compact.lookup(k) is not None)
    assert false_routes == 0
    # every miss is absorbed by the filter or the fingerprint probe
    assert (
        compact.filter_rejects + compact.filter_false_positives == 500
    )
    assert compact.filter_rejects > 450  # filter does the heavy lifting


def test_smoke_topology_conserves_counts():
    workload = _small(num_keys=300, tuples_per_instance=200)
    sim = Simulator()
    cluster = Cluster(sim, workload.config.parallelism)
    deployment = deploy(sim, cluster, workload.topology())
    deployment.start()
    sim.run()
    totals = Counter()
    for executor in deployment.instances("A"):
        for key, value in executor.operator.state.items():
            totals[key] += value
    assert totals == workload.expected_counts()
