"""What one cell of each evaluation experiment computes (Section 4).

An experiment is three things: a campaign file (``campaigns/*.yaml``)
holding its grid at the paper's size, one *point function* here that
computes one cell of it, and its claims — about one cell in
``repro.campaign.runners``, comparing cells in
``tools/check_fig_shapes.py``. Nothing here loops over a grid or picks
a size: the trace experiments take the workload object, so a runner
hands in the paper-size trace and a test a small one. Run a figure
with ``python -m repro.campaign run campaigns/<figure>.yaml`` and one
cell of it with ``--cell ID``.

Time axis note: the engine simulates tuple-level behaviour, so the
Fig. 13/14 experiments compress the paper's 30-minute runs with
10-minute reconfiguration periods into seconds-long simulated runs
with proportionally shorter periods. Rates (Ktuples/s) stay
comparable; only the wall-clock axis is compressed.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from typing import Dict, List, Optional

from repro.analysis.trace_eval import TwoHopEvaluator
from repro.core import KeyGraph, Manager, ManagerConfig
from repro.core.assignment import compute_assignment, plan_reconfiguration
from repro.core.compact_table import (
    CompactRoutingTable,
    plain_table_memory_bytes,
)
from repro.core.estimator import EstimatorConfig, ReconfigurationEstimator
from repro.core.hierarchical import (
    assignment_quality,
    compute_hierarchical_assignment,
)
from repro.core.table_delta import TableDelta, snapshot_wire_bytes
from repro.engine import (
    Cluster,
    FieldsGrouping,
    PartialKeyGrouping,
    RunConfig,
    Simulator,
    count_chain,
    deploy,
)
from repro.engine.metrics import ThroughputSampler
from repro.engine.runner import run
from repro.workloads import (
    BigKeysConfig,
    BigKeysWorkload,
    FlickrConfig,
    FlickrWorkload,
    SkewConfig,
    SkewWorkload,
    SyntheticConfig,
    SyntheticWorkload,
    TwitterWorkload,
    ZipfSampler,
)

#: Short simulated measurement window: transients settle within a few
#: thousand tuples (max_pending bounded), so this is plenty.
DEFAULT_DURATION_S = 0.30
DEFAULT_WARMUP_S = 0.10


# ----------------------------------------------------------------------
# Synthetic-workload throughput (Figures 7, 8, 9)
# ----------------------------------------------------------------------


def synthetic_run(
    parallelism: int,
    locality: float,
    padding: int,
    policy: str,
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    bandwidth_gbps: float = 10.0,
    seed: int = 0,
) -> Dict:
    workload = SyntheticWorkload(
        SyntheticConfig(
            parallelism=parallelism,
            locality=locality,
            padding=padding,
            seed=seed,
        )
    )
    result = run(
        workload.topology(policy),
        RunConfig(
            duration_s=duration_s,
            warmup_s=warmup_s,
            num_servers=parallelism,
            bandwidth_gbps=bandwidth_gbps,
        ),
    )
    return {
        "throughput": result.throughput,
        "measured_locality": result.locality,
    }


# ----------------------------------------------------------------------
# Skew experiment (beyond the paper): locality vs load balance vs
# throughput under Zipf skew with a flash hot key
# ----------------------------------------------------------------------


def skew_run(
    parallelism: int,
    exponent: float,
    flash_share: float,
    policy: str,
    split_width: int = 2,
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    seed: int = 0,
) -> Dict:
    workload = SkewWorkload(
        SkewConfig(
            parallelism=parallelism,
            exponent=exponent,
            flash_share=flash_share,
            split_width=split_width,
            seed=seed,
        )
    )
    result = run(
        workload.topology(policy),
        RunConfig(
            duration_s=duration_s,
            warmup_s=warmup_s,
            num_servers=parallelism,
        ),
    )
    return {
        "throughput": result.throughput,
        "locality": result.locality,
        "load_balance": result.load_balance["A"],
    }


# ----------------------------------------------------------------------
# Twitter trace (Figures 10 and 12; Figure 11's point function is one
# mode of ``repro.analysis.trace_eval.weekly_series``)
# ----------------------------------------------------------------------


def flash_tag_series(workload: TwitterWorkload, weeks: int) -> List[Dict]:
    """Daily frequency of the recurring flash hashtag per location."""
    tag = workload.config.flash_tag
    series = workload.daily_frequency(tag, weeks)
    # The three locations where the tag peaks the most, like the
    # Virginia/Florida/Texas panel of the paper.
    top = sorted(
        series.items(), key=lambda kv: max(kv[1].values()), reverse=True
    )[:3]
    return [
        {"tag": tag, "location": location, "day": day, "frequency": days[day]}
        for location, days in top
        for day in sorted(days)
    ]


def edge_budget_point(
    workload: TwitterWorkload, budget: Optional[int], parallelism: int
) -> Dict:
    """Locality achieved on week 1 by tables planned from the
    ``budget`` heaviest week-0 pairs (None: all of them)."""
    train = list(workload.week_pairs(0))
    total_edges = len(set(train))
    evaluator = TwoHopEvaluator(parallelism)
    tables, predicted = evaluator.plan_tables(train, max_edges=budget)
    result = evaluator.evaluate(workload.week_pairs(1), tables)
    return {
        "edges": total_edges if budget is None else min(budget, total_edges),
        "locality": result.locality,
        "predicted": predicted,
    }


# ----------------------------------------------------------------------
# Flickr reconfiguration (Figures 13, 14)
# ----------------------------------------------------------------------


def flickr_run(
    parallelism: int,
    padding: int,
    bandwidth_gbps: float,
    reconfigure: bool,
    duration_s: float = 1.5,
    period_s: float = 0.5,
    sample_interval_s: float = 0.05,
    telemetry_path: Optional[str] = None,
) -> Dict:
    """One Fig. 13-style run: the Flickr application with or without
    periodic reconfiguration; returns the throughput time series.

    The paper runs 30 minutes with a 10-minute period; we compress the
    time axis (duration : period stays 3 : 1). When ``telemetry_path``
    is set, full observability is attached and the run's trace
    (reconfiguration-round spans, periodic snapshots, metric dump) is
    exported there as JSONL — render it with
    ``python -m repro.analysis.report <path>``.
    """
    from repro.observability import attach_telemetry

    workload = FlickrWorkload(FlickrConfig())
    sim = Simulator()
    cluster = Cluster(sim, parallelism, bandwidth_gbps=bandwidth_gbps)
    deployment = deploy(
        sim, cluster, workload.topology(parallelism, padding=padding)
    )
    manager = None
    if reconfigure:
        manager = Manager(
            deployment,
            ManagerConfig(period_s=period_s, sketch_capacity=100_000),
        )
        manager.start()
    telemetry = None
    if telemetry_path is not None:
        telemetry = attach_telemetry(
            deployment,
            manager=manager,
            path=telemetry_path,
            snapshot_interval_s=sample_interval_s,
        )
    sampler = ThroughputSampler(
        sim, deployment.metrics, "B", sample_interval_s
    )
    sampler.start()
    deployment.start()
    sim.run(until=duration_s)
    if telemetry is not None:
        telemetry.flush()

    samples = [
        {"time": t, "throughput": rate} for t, rate in sampler.samples
    ]
    before = [s["throughput"] for s in samples if s["time"] <= period_s]
    # "the average is measured after the first reconfiguration": allow
    # a short settle margin past the reconfiguration instant.
    settle = period_s + 0.15
    after = [s["throughput"] for s in samples if s["time"] > settle]
    return {
        "period_s": period_s,
        "samples": samples,
        "mean_before_first_reconf": sum(before) / max(len(before), 1),
        "mean_after_first_reconf": sum(after) / max(len(after), 1),
        "rounds": len(manager.completed_rounds) if manager else 0,
    }


# ----------------------------------------------------------------------
# Scale sweep (beyond the paper; DESIGN.md §13): table memory and
# control-plane bytes as the key population grows
# ----------------------------------------------------------------------


def scale_point(num_keys: int) -> Dict:
    """Routing-table bytes/key (plain vs compact), PROPAGATE bytes per
    round (full snapshot vs delta) and the measured false-route rate of
    the compact table, for one key population.

    Every column comes from the DESIGN.md §13 byte model or from exact
    lookups, so the row is the same on any machine. Across key counts
    the delta column is flat because a round moves a fixed number of
    keys (``BigKeysConfig.churn_keys``) whatever the table size, while
    a snapshot grows with it.
    """
    workload = BigKeysWorkload(BigKeysConfig(num_keys=num_keys))
    old = workload.make_table(0)
    new = workload.make_table(1)
    size = len(old)
    compact = CompactRoutingTable.from_table(old)
    delta_bytes = TableDelta.diff(old, new).wire_bytes()
    snapshot_bytes = snapshot_wire_bytes(old)
    # Keys outside the table must fall back to hashing; a lookup that
    # answers for one is a false route.
    absent = [
        workload.key(index)
        for index in range(size, min(num_keys, size + 50_000))
    ]
    false_routes = sum(
        1 for key in absent if compact.lookup(key) is not None
    )
    return {
        "table_keys": size,
        "plain_bytes_per_key": plain_table_memory_bytes(old) / size,
        "compact_bytes_per_key": compact.memory_bytes() / size,
        "snapshot_bytes_per_round": snapshot_bytes,
        "delta_bytes_per_round": delta_bytes,
        "saved_frac": 1.0 - delta_bytes / snapshot_bytes,
        "false_route_rate": false_routes / len(absent) if absent else 0.0,
    }


# ----------------------------------------------------------------------
# Ablations beyond the paper's figures: each study is one cell that
# returns the numbers of the variants it compares
# ----------------------------------------------------------------------

ABLATION_SERVERS = 4


def _week_graph(workload: TwitterWorkload, week: int) -> KeyGraph:
    """The exact key graph of one week of the two-hop trace."""
    counts = Counter(workload.week_pairs(week))
    return KeyGraph.from_stats({("S->A", "A->B"): counts.items()})


def ablation_collector(workload: TwitterWorkload) -> Dict[str, float]:
    """Statistics collector: next-week locality of tables planned from
    SpaceSaving sketches of three budgets vs exact counting."""
    evaluator = TwoHopEvaluator(ABLATION_SERVERS)
    train = list(workload.week_pairs(0))
    test = list(workload.week_pairs(1))
    metrics = {}
    for capacity in (64, 512, 4096, None):
        tables, _ = evaluator.plan_tables(train, sketch_capacity=capacity)
        name = "exact" if capacity is None else f"spacesaving_{capacity}"
        metrics[f"locality_{name}"] = evaluator.evaluate(test, tables).locality
    return metrics


def ablation_period(
    workload: TwitterWorkload, weeks: int = 10
) -> Dict[str, float]:
    """Reconfiguration period: how locality decays when reconfiguring
    less often (the trade-off Section 4.3 discusses)."""
    evaluator = TwoHopEvaluator(ABLATION_SERVERS)
    trace = [list(workload.week_pairs(week)) for week in range(weeks)]
    metrics = {}
    for period in (1, 2, 4):
        tables = None
        series = []
        for week, pairs in enumerate(trace):
            series.append(evaluator.evaluate(pairs, tables).locality)
            if week % period == 0:
                tables, _ = evaluator.plan_tables(pairs)
        metrics[f"mean_locality_period_{period}"] = statistics.mean(series[1:])
    return metrics


def ablation_estimator(
    workload: TwitterWorkload, weeks: int = 6
) -> Dict[str, float]:
    """Benefit estimator (future work): with a short amortization
    horizon most weekly replans are not worth their migration cost;
    with a long one they all are."""
    evaluator = TwoHopEvaluator(ABLATION_SERVERS)
    streams = [evaluator.first_hop, evaluator.second_hop]
    graphs = [_week_graph(workload, week) for week in range(weeks)]
    metrics = {"rounds": float(weeks)}
    for horizon in (50_000_000, 100):
        estimator = ReconfigurationEstimator(
            EstimatorConfig(horizon_tuples=horizon)
        )
        tables: Dict = {}
        deployed = 0
        for week, graph in enumerate(graphs):
            plan = plan_reconfiguration(
                graph, streams, ABLATION_SERVERS, tables, seed=week,
                estimator=estimator,
            )
            if not plan.vetoed:
                tables = {**tables, **plan.tables}
                deployed += 1
        metrics[f"deployed_rounds_horizon_{horizon}"] = float(deployed)
    return metrics


def ablation_pkg() -> Dict[str, float]:
    """Partial key grouping baseline (Nasir et al.): balances a skewed
    stream better than hash fields grouping — at the price of splitting
    keys, so no locality tables are possible."""

    def source(ctx):
        sampler = ZipfSampler(100, exponent=1.2, seed=9)
        rng = random.Random(ctx.instance_index)
        while True:
            yield (f"k{sampler.sample(rng)}",)

    config = RunConfig(duration_s=0.15, warmup_s=0.05, num_servers=4)
    metrics = {}
    for name, grouping in (
        ("hash_fields", FieldsGrouping(0)),
        ("partial_key", PartialKeyGrouping(0)),
    ):
        result = run(count_chain(source, 4, [grouping], names="B"), config)
        metrics[f"load_balance_{name}"] = result.load_balance["B"]
    return metrics


def ablation_hierarchical(workload: TwitterWorkload) -> Dict[str, float]:
    """Rack-aware hierarchical partitioning (future work): on a 2-rack
    cluster, two-level partitioning pays no more weighted network cost
    than flat partitioning once rack crossings are priced higher than
    in-rack hops."""
    graph = _week_graph(workload, 0)
    racks = [[0, 1], [2, 3]]
    metrics = {}
    for scheme, assignment in (
        ("flat", compute_assignment(graph, ABLATION_SERVERS, seed=2)),
        (
            "hierarchical",
            compute_hierarchical_assignment(graph, racks, seed=2),
        ),
    ):
        quality = assignment_quality(graph, assignment, racks)
        metrics[f"{scheme}_same_server"] = quality.same_server
        metrics[f"{scheme}_same_rack"] = quality.same_rack
        metrics[f"{scheme}_cross_rack"] = quality.cross_rack
        metrics[f"{scheme}_weighted_cost"] = quality.weighted_cost()
    return metrics


#: ablation study -> its point function (``pkg`` alone takes no trace)
ABLATIONS = {
    "collector": ablation_collector,
    "period": ablation_period,
    "estimator": ablation_estimator,
    "pkg": ablation_pkg,
    "hierarchical": ablation_hierarchical,
}
