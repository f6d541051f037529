"""One cost model: the vectorized meter charges what the DES charges.

The DES plays every tuple through per-executor service times and
per-server NIC queues. The vectorized backend sums the same charges in
closed form — CPU per executor, NIC bytes per server — and reports the
busiest of them as ``sim_s``. On the same finite input the two modeled
makespans agree, whichever resource binds.
"""

import math

import pytest

from repro.engine import CountBolt, FieldsGrouping, TopologyBuilder
from repro.engine.backends import (
    BackendOptions,
    ReconfigureAction,
    run_topology,
)
from repro.engine.operators import IteratorSpout
from repro.workloads import SyntheticConfig, SyntheticWorkload


@pytest.mark.parametrize(
    "parallelism,locality,padding,policy,bandwidth_gbps",
    [
        # CPU-bound: the bolt service, then ser/deser of remote tuples
        (1, 1.0, 0, "locality-aware", 10.0),
        (4, 1.0, 0, "locality-aware", 10.0),
        (4, 1.0, 20000, "locality-aware", 10.0),
        (4, 0.6, 20000, "locality-aware", 10.0),
        (4, 0.6, 0, "hash-based", 10.0),
        (4, 0.6, 20000, "hash-based", 10.0),
        (6, 0.8, 8000, "hash-based", 10.0),
        # NIC-bound
        (4, 0.6, 20000, "hash-based", 1.0),
    ],
)
def test_vectorized_sim_s_matches_des(
    parallelism, locality, padding, policy, bandwidth_gbps
):
    workload = SyntheticWorkload(
        SyntheticConfig(
            parallelism=parallelism,
            locality=locality,
            padding=padding,
            tuples_per_instance=2000,
        )
    )
    options = BackendOptions(bandwidth_gbps=bandwidth_gbps)
    des = run_topology(workload.topology(policy), "reference", options)
    vectorized = run_topology(workload.topology(policy), "vectorized", options)
    assert vectorized.received == des.received
    assert vectorized.sim_s == pytest.approx(des.sim_s, rel=0.05)


def test_meter_charges_the_instances_a_rescale_adds():
    """2 → 4 mid-stream: the counting bolt's new instances 2 and 3 are
    charged CPU. The meter's arrays are sized to the widest placement,
    so they have a slot for them."""

    def source(ctx):
        for i in range(3000):
            yield (i % 40,)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "A",
        lambda: CountBolt(0),
        parallelism=2,
        inputs={"S": FieldsGrouping(0)},
    )
    result = run_topology(
        builder.build(),
        "vectorized",
        BackendOptions(
            batch_size=256,
            actions=[ReconfigureAction(1000, "S->A", None, 4)],
        ),
    )
    assert len(result.received["A"]) == 4
    cpu = result.handle.meter.cpu_s["A"]
    assert cpu[2] > 0 and cpu[3] > 0
    assert math.isfinite(result.sim_s) and result.sim_s > 0
