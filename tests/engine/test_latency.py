"""End-to-end latency tracking: the reservoir and what a run reports."""

import pytest

from repro.engine import (
    CountBolt,
    FieldsGrouping,
    RunConfig,
    TopologyBuilder,
    run,
)
from repro.engine.metrics import LatencyStats
from repro.engine.operators import IteratorSpout


class TestLatency:
    def test_latency_stats_basics(self):
        stats = LatencyStats(reservoir_size=100)
        for value in [1.0, 2.0, 3.0, 4.0]:
            stats.record(value)
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.max == 4.0
        assert stats.percentile(0.5) == 2.0
        assert stats.percentile(1.0) == 4.0
        assert stats.percentile(0.0) == 1.0

    def test_latency_stats_validation(self):
        with pytest.raises(ValueError):
            LatencyStats(reservoir_size=0)
        with pytest.raises(ValueError):
            LatencyStats().percentile(1.5)

    def test_empty_stats(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.percentile(0.9) == 0.0

    def test_reservoir_stays_bounded(self):
        stats = LatencyStats(reservoir_size=10)
        for i in range(1000):
            stats.record(float(i))
        assert stats.count == 1000
        assert len(stats._reservoir) == 10
        # Reservoir values span the stream, not just its head.
        assert max(stats._reservoir) > 100

    def test_reset(self):
        stats = LatencyStats()
        stats.record(1.0)
        stats.reset()
        assert stats.count == 0
        assert stats.max == 0.0

    def test_run_reports_pipeline_latency(self):
        def source(ctx):
            while True:
                yield (0, 0)

        builder = TopologyBuilder()
        builder.spout("S", lambda: IteratorSpout(source), parallelism=1)
        builder.bolt(
            "A", lambda: CountBolt(0, forward=True), parallelism=1,
            inputs={"S": FieldsGrouping(0)},
        )
        builder.bolt(
            "B", lambda: CountBolt(1, forward=False), parallelism=1,
            inputs={"A": FieldsGrouping(1)},
        )
        result = run(
            builder.build(),
            RunConfig(duration_s=0.1, warmup_s=0.02, num_servers=1,
                      max_pending=4),
        )
        # With a tiny pending window there is no queueing: latency is a
        # few service times, far below a millisecond.
        assert 0 < result.latency_p50 < 1e-3
        assert result.latency_p50 <= result.latency_p99 <= result.latency_max
        assert result.latency_mean > 2 * 9e-6  # at least two bolt services

    def test_remote_hops_increase_latency(self):
        def source(ctx):
            i = ctx.instance_index
            while True:
                yield (i, i)

        from repro.engine import CustomGrouping

        def build(offset):
            builder = TopologyBuilder()
            builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
            builder.bolt(
                "A", lambda: CountBolt(0, forward=True), parallelism=2,
                inputs={"S": CustomGrouping(
                    lambda v, c: (v[0] + offset) % 2
                )},
            )
            builder.bolt(
                "B", lambda: CountBolt(1, forward=False), parallelism=2,
                inputs={"A": CustomGrouping(
                    lambda v, c: (v[1] + offset) % 2
                )},
            )
            return builder.build()

        config = RunConfig(
            duration_s=0.1, warmup_s=0.02, num_servers=2, max_pending=4
        )
        local = run(build(0), config)
        remote = run(build(1), config)
        assert remote.latency_p50 > local.latency_p50
