"""One driver per figure of the paper's evaluation (Section 4).

Each ``figNN`` function regenerates the corresponding figure's data
and returns it as a list of dict rows. The paper's qualitative claims
are asserted by the one caller that sweeps each figure's grid: the
campaign runners (``repro.campaign.runners``) for Figures 10-13 and
the skew experiment, the pytest files under ``benchmarks/`` for
Figures 7-9, 14 and the ablations. Run standalone with::

    python -m repro.analysis.experiments fig7 [--quick]

Time axis note: the engine simulates tuple-level behaviour, so the
Fig. 13/14 experiments compress the paper's 30-minute runs with
10-minute reconfiguration periods into seconds-long simulated runs
with proportionally shorter periods. Rates (Ktuples/s) stay
comparable; only the wall-clock axis is compressed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.trace_eval import MODES, TwoHopEvaluator, weekly_series
from repro.core import Manager, ManagerConfig
from repro.core.compact_table import (
    CompactRoutingTable,
    plain_table_memory_bytes,
)
from repro.core.table_delta import TableDelta, snapshot_wire_bytes
from repro.engine import Cluster, RunConfig, Simulator, deploy
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
    TwitterConfig,
    TwitterWorkload,
)
from repro.workloads.skew import SKEW_POLICIES
from repro.workloads.synthetic import POLICIES

#: Short simulated measurement window: transients settle within a few
#: thousand tuples (max_pending bounded), so this is plenty.
DEFAULT_DURATION_S = 0.30
DEFAULT_WARMUP_S = 0.10


# ----------------------------------------------------------------------
# Synthetic-workload throughput experiments (Figures 7, 8, 9)
# ----------------------------------------------------------------------


def _synthetic_run(
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
        "policy": policy,
        "parallelism": parallelism,
        "locality": locality,
        "padding": padding,
        "throughput": result.throughput,
        "measured_locality": result.locality,
    }


def fig7(
    parallelisms: Optional[Sequence[int]] = None,
    localities: Sequence[float] = (0.6, 1.0),
    paddings: Optional[Sequence[int]] = None,
    policies: Sequence[str] = POLICIES,
    quick: bool = False,
) -> List[Dict]:
    """Throughput vs parallelism for each (locality, padding) panel."""
    if parallelisms is None:
        parallelisms = (1, 2, 4, 6) if quick else (1, 2, 3, 4, 5, 6)
    if paddings is None:
        paddings = (0, 20000) if quick else (0, 8000, 20000)
    rows = []
    for locality in localities:
        for padding in paddings:
            for policy in policies:
                for parallelism in parallelisms:
                    rows.append(
                        _synthetic_run(parallelism, locality, padding, policy)
                    )
    return rows


def fig8(
    localities: Optional[Sequence[float]] = None,
    parallelisms: Optional[Sequence[int]] = None,
    padding: int = 12000,
    policies: Sequence[str] = POLICIES,
    quick: bool = False,
) -> List[Dict]:
    """Throughput vs locality at 12 kB padding."""
    if localities is None:
        localities = (0.6, 0.8, 1.0) if quick else (0.6, 0.7, 0.8, 0.9, 1.0)
    if parallelisms is None:
        parallelisms = (2, 6) if quick else (2, 4, 6)
    rows = []
    for parallelism in parallelisms:
        for policy in policies:
            for locality in localities:
                rows.append(
                    _synthetic_run(parallelism, locality, padding, policy)
                )
    return rows


def fig9(
    paddings: Optional[Sequence[int]] = None,
    parallelisms: Optional[Sequence[int]] = None,
    locality: float = 0.8,
    policies: Sequence[str] = POLICIES,
    quick: bool = False,
) -> List[Dict]:
    """Throughput vs tuple size at 80% locality."""
    if paddings is None:
        paddings = (0, 2000, 5000) if quick else (
            0, 1000, 2000, 3000, 4000, 5000,
        )
    if parallelisms is None:
        parallelisms = (2, 6) if quick else (2, 4, 6)
    rows = []
    for parallelism in parallelisms:
        for policy in policies:
            for padding in paddings:
                rows.append(
                    _synthetic_run(parallelism, locality, padding, policy)
                )
    return rows


# ----------------------------------------------------------------------
# Skew experiment (beyond the paper): locality vs load balance vs
# throughput under Zipf skew with a flash hot key
# ----------------------------------------------------------------------


def _skew_run(
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
        "policy": policy,
        "parallelism": parallelism,
        "exponent": exponent,
        "flash_share": flash_share,
        "throughput": result.throughput,
        "locality": result.locality,
        "load_balance": result.load_balance["A"],
    }


def skew(
    exponents: Optional[Sequence[float]] = None,
    flash_shares: Optional[Sequence[float]] = None,
    parallelism: int = 4,
    policies: Sequence[str] = SKEW_POLICIES,
    quick: bool = False,
) -> List[Dict]:
    """Locality, load balance (max/mean) and throughput for the three
    routing policies under increasing Zipf skew and a flash-crowd hot
    key. The acceptance row is exponent 1.5 with a flash share: hybrid
    must beat pure tables on load balance and pure hash on locality."""
    if exponents is None:
        exponents = (1.0, 1.5) if quick else (0.8, 1.0, 1.2, 1.5)
    if flash_shares is None:
        flash_shares = (0.3,) if quick else (0.0, 0.15, 0.3)
    rows = []
    for flash_share in flash_shares:
        for exponent in exponents:
            for policy in policies:
                rows.append(
                    _skew_run(parallelism, exponent, flash_share, policy)
                )
    return rows


# ----------------------------------------------------------------------
# Twitter trace experiments (Figures 10, 11, 12)
# ----------------------------------------------------------------------


def _twitter(quick: bool) -> TwitterWorkload:
    if quick:
        return TwitterWorkload(
            TwitterConfig(
                tweets_per_week=10000,
                num_locations=200,
                base_hashtags=1500,
                new_hashtags_per_week=150,
            )
        )
    return TwitterWorkload(TwitterConfig(tweets_per_week=30000))


def fig10(weeks: int = 8, quick: bool = False) -> List[Dict]:
    """Daily frequency of the recurring flash hashtag per location."""
    workload = _twitter(quick)
    tag = workload.config.flash_tag
    series = workload.daily_frequency(tag, weeks)
    # The three locations where the tag peaks the most, like the
    # Virginia/Florida/Texas panel of the paper.
    top = sorted(
        series.items(), key=lambda kv: max(kv[1].values()), reverse=True
    )[:3]
    rows = []
    for location, days in top:
        for day in sorted(days):
            rows.append(
                {
                    "tag": tag,
                    "location": location,
                    "day": day,
                    "frequency": days[day],
                }
            )
    return rows


def fig11(
    weeks: Optional[int] = None,
    num_servers: int = 6,
    sketch_capacity: Optional[int] = 100_000,
    modes: Sequence[str] = MODES,
    quick: bool = False,
) -> List[Dict]:
    """Locality and load balance over time: online vs offline vs hash."""
    if weeks is None:
        weeks = 8 if quick else 25
    workload = _twitter(quick)
    rows = []
    for mode in modes:
        results = weekly_series(
            workload.week_pairs,
            weeks,
            num_servers,
            mode,
            sketch_capacity=sketch_capacity,
        )
        for week, result in enumerate(results):
            rows.append(
                {
                    "mode": mode,
                    "week": week,
                    "locality": result.locality,
                    "load_balance": result.load_balance,
                    "unseen_fraction": result.unseen_fraction,
                }
            )
    return rows


def fig12(
    edge_budgets: Optional[Sequence[Optional[int]]] = None,
    parallelisms: Optional[Sequence[int]] = None,
    quick: bool = False,
) -> List[Dict]:
    """Locality achieved vs number of collected edges (pairs)."""
    if edge_budgets is None:
        edge_budgets = (10, 1000, None) if quick else (
            10, 100, 1000, 10_000, 100_000, None,
        )
    if parallelisms is None:
        parallelisms = (2, 6) if quick else (2, 3, 4, 5, 6)
    workload = _twitter(quick)
    train = list(workload.week_pairs(0))
    test = list(workload.week_pairs(1))
    total_edges = len(set(train))
    rows = []
    for parallelism in parallelisms:
        evaluator = TwoHopEvaluator(parallelism)
        for budget in edge_budgets:
            tables, predicted = evaluator.plan_tables(
                train, max_edges=budget
            )
            result = evaluator.evaluate(test, tables)
            rows.append(
                {
                    "parallelism": parallelism,
                    "edges": budget if budget is not None else total_edges,
                    "budget": "all" if budget is None else budget,
                    "locality": result.locality,
                    "predicted": predicted,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Flickr reconfiguration experiments (Figures 13, 14)
# ----------------------------------------------------------------------


def _flickr_run(
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
        "parallelism": parallelism,
        "padding": padding,
        "bandwidth_gbps": bandwidth_gbps,
        "reconfigure": reconfigure,
        "samples": samples,
        "mean_before_first_reconf": sum(before) / max(len(before), 1),
        "mean_after_first_reconf": sum(after) / max(len(after), 1),
        "rounds": len(manager.completed_rounds) if manager else 0,
    }


def fig13(
    bandwidths: Optional[Sequence[float]] = None,
    paddings: Optional[Sequence[int]] = None,
    parallelism: int = 6,
    quick: bool = False,
    telemetry_path: Optional[str] = None,
) -> List[Dict]:
    """Throughput over time, with vs without reconfiguration.

    ``telemetry_path`` exports the full telemetry of the *first*
    reconfiguring run (spans, snapshots, metrics) as JSONL for
    ``python -m repro.analysis.report``.
    """
    if bandwidths is None:
        bandwidths = (1.0,) if quick else (10.0, 1.0)
    if paddings is None:
        paddings = (4000,) if quick else (4000, 8000, 12000)
    rows = []
    traced = False
    for bandwidth in bandwidths:
        for padding in paddings:
            for reconfigure in (True, False):
                trace_here = reconfigure and not traced
                rows.append(
                    _flickr_run(
                        parallelism,
                        padding,
                        bandwidth,
                        reconfigure,
                        telemetry_path=(
                            telemetry_path if trace_here else None
                        ),
                    )
                )
                traced = traced or trace_here
    return rows


def fig14(
    parallelisms: Optional[Sequence[int]] = None,
    padding: int = 4000,
    bandwidth_gbps: float = 1.0,
    quick: bool = False,
) -> List[Dict]:
    """Average throughput vs parallelism, 4 kB tuples on 1 Gb/s.

    With reconfiguration, the average is measured after the first
    reconfiguration, as in the paper.
    """
    if parallelisms is None:
        parallelisms = (2, 6) if quick else (2, 3, 4, 5, 6)
    rows = []
    for parallelism in parallelisms:
        for reconfigure in (True, False):
            result = _flickr_run(
                parallelism, padding, bandwidth_gbps, reconfigure,
                duration_s=2.0,
            )
            rows.append(
                {
                    "parallelism": parallelism,
                    "reconfigure": reconfigure,
                    "throughput": result["mean_after_first_reconf"],
                }
            )
    return rows


# ----------------------------------------------------------------------
# Scale sweep (beyond the paper; DESIGN.md §13): table memory and
# control-plane bytes as the key population grows
# ----------------------------------------------------------------------


def scale(
    key_counts: Optional[Sequence[int]] = None, quick: bool = False
) -> List[Dict]:
    """Routing-table bytes/key (plain vs compact), PROPAGATE bytes per
    round (full snapshot vs delta) and the measured false-route rate of
    the compact table, per key population.

    Every column comes from the DESIGN.md §13 byte model or from exact
    lookups, so the rows are the same on any machine. The delta column
    is flat because a round moves a fixed number of keys
    (``BigKeysConfig.churn_keys``) whatever the table size, while a
    snapshot grows with it.
    """
    if key_counts is None:
        key_counts = (
            (10_000, 100_000) if quick else (10_000, 100_000, 1_000_000)
        )
    rows = []
    for num_keys in key_counts:
        workload = BigKeysWorkload(BigKeysConfig(num_keys=num_keys))
        old = workload.make_table(0)
        new = workload.make_table(1)
        size = len(old)
        compact = CompactRoutingTable.from_table(old)
        delta_bytes = TableDelta.diff(old, new).wire_bytes()
        snapshot_bytes = snapshot_wire_bytes(old)
        # Keys outside the table must fall back to hashing; a lookup
        # that answers for one is a false route.
        absent = [
            workload.key(index)
            for index in range(size, min(num_keys, size + 50_000))
        ]
        false_routes = sum(
            1 for key in absent if compact.lookup(key) is not None
        )
        rows.append(
            {
                "keys": num_keys,
                "table_keys": size,
                "plain_bytes_per_key": plain_table_memory_bytes(old) / size,
                "compact_bytes_per_key": compact.memory_bytes() / size,
                "snapshot_bytes_per_round": snapshot_bytes,
                "delta_bytes_per_round": delta_bytes,
                "saved_frac": 1.0 - delta_bytes / snapshot_bytes,
                "false_route_rate": (
                    false_routes / len(absent) if absent else 0.0
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

FIGURES = {
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "skew": skew,
    "scale": scale,
}


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import os

    from repro.analysis.report import format_table

    parser = argparse.ArgumentParser(
        description="Regenerate one of the paper's figures."
    )
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="(fig13 only) export the first reconfiguring run's "
        "telemetry as JSONL; render it with "
        "'python -m repro.analysis.report PATH'",
    )
    args = parser.parse_args(argv)

    figures = sorted(FIGURES) if args.figure == "all" else [args.figure]
    os.makedirs(args.out_dir, exist_ok=True)
    for name in figures:
        kwargs = {"quick": args.quick}
        if name == "fig13" and args.telemetry:
            kwargs["telemetry_path"] = args.telemetry
        rows = FIGURES[name](**kwargs)
        if name == "fig13":
            for row in rows:
                row.pop("samples", None)
        table = format_table(rows, title=f"{name} ({'quick' if args.quick else 'full'})")
        print(table)
        print()
        path = os.path.join(args.out_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(table + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
