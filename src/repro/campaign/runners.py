"""What one campaign cell runs.

The registered runners:

``episode``
    A fuzz-grade deployment episode (``repro.testing``): PairsWorkload
    topology, periodic reconfiguration, the full invariant suite armed,
    simulator event fingerprint enabled. Boolean axes toggle features —
    ``hybrid`` (hot-key splitting), ``rescale`` (scripted mid-stream
    rescales), ``faults`` (a conservation-safe chaos plan),
    ``delta_propagation`` and ``compact_tables`` (wire-format flags) —
    while structured sub-configs (the fault plan, the rescale schedule,
    the hybrid knobs) are drawn deterministically from the cell seed,
    so the same cell id always runs the identical episode and must
    reproduce the identical fingerprint.

``synthetic``
    One (parallelism, locality, padding) point of the synthetic
    workload under all three routing policies — a cell of Figure 7, 8
    or 9, whichever grid the campaign file spans.

``fig10`` / ``fig11`` / ``fig12``
    The Twitter-trace figures: the flash-hashtag location/day spread
    (fig10), one routing mode of the weekly locality/balance sweep
    (fig11), and one (budget, parallelism) point of
    locality-vs-collected-edges (fig12).

``fig13``
    One (bandwidth, padding, parallelism) point of the Flickr
    experiment, with and without reconfiguration — a cell of Figure 13
    or 14; a sustained throughput dip after a reconfiguration is a
    cell violation.

``skew`` / ``scale`` / ``ablation``
    Beyond the paper: one (exponent, flash_share, policy) point of the
    skew experiment, one key count of the table-size sweep, one
    ablation study (every variant it compares, in one cell).

``backend``
    Cross-backend equivalence (DESIGN.md §15/§16): run one scenario
    (``fig13`` / ``skew`` / ``rescale``) on the reference DES and a
    candidate backend (``candidate: vectorized`` | ``multiprocess``,
    default vectorized) from identical finite inputs through
    :func:`repro.testing.equivalence.run_equivalence`, and report the
    speedup. On ``rescale`` the DES manager decides and the candidate
    replays every round it committed, at the tuple offset of the DES's
    swap. Any broken invariant lands in the cell's ``violations``
    exactly like an episode-cell invariant breach, so the campaign
    report gates it. Multiprocess cells additionally report the
    *measured* per-run CPU ns and inter-process bytes.

An experiment runner calls one point function of
``repro.analysis.experiments`` on the cell's axis values (the grid is
the campaign file's and nobody else's) and asserts the claims about
that one cell: a broken claim is a cell violation (:func:`_claim`),
the metrics are baseline-tracked. Claims that compare cells with each
other are checked on the campaign report by
``tools/check_fig_shapes.py``.

Every runner returns a :class:`CellOutcome` whose ``metrics`` follow
the :mod:`repro.campaign.baseline` axis convention (``*_per_s`` higher
is better; unsuffixed metrics get their direction from the campaign's
``axes:`` mapping).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: EpisodeConfig scalar fields a campaign may set directly (defaults
#: or matrix axes); feature toggles and seeds are handled separately.
EPISODE_PARAMS = (
    "parallelism",
    "keys",
    "exponent",
    "correlation",
    "tuples_per_instance",
    "period_s",
    "round_timeout_s",
    "rpc_latency_s",
    "imbalance",
    "until_s",
)

#: boolean feature toggles of the episode runner
EPISODE_FLAGS = (
    "hybrid",
    "rescale",
    "faults",
    "delta_propagation",
    "compact_tables",
)

#: non-boolean episode extras: ``inject`` arms a deliberate bug
#: (harness self-test, mirrors ``python -m repro.testing.fuzz --inject``)
EPISODE_EXTRAS = ("inject",)


@dataclass
class CellOutcome:
    """What one cell produced (worker-side; JSON-serializable)."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: simulator event-sequence fingerprint (episode cells), hex string
    fingerprint: Optional[str] = None
    violations: List[dict] = field(default_factory=list)
    #: repro bundle payload for a failing episode cell (written next to
    #: the report by the worker so the failure replays anywhere)
    bundle: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _unknown(params: Dict[str, Any], allowed: set, runner: str) -> None:
    extra = sorted(set(params) - allowed)
    if extra:
        raise ValueError(
            f"{runner} runner got unknown parameter(s) "
            f"{', '.join(map(repr, extra))}; allowed: {sorted(allowed)}"
        )


def episode_config(params: Dict[str, Any], seed: int):
    """Derive the deterministic EpisodeConfig for one cell.

    Unlike the fuzz driver's ``generate_config`` (which randomizes the
    episode *shape*), a campaign cell is explicit: scalars come from
    the campaign file, and only the structured sub-plans — fault plan,
    rescale schedule, hybrid knobs — are drawn, each from its own
    seed-rooted RNG stream so cell id → episode is a pure function.
    """
    from repro.faults import fault_plan_to_dict, generate_fault_plan
    from repro.testing.episode import (
        EpisodeConfig,
        draw_hybrid,
        draw_rescales,
    )
    from repro.testing.rng import RngTree

    _unknown(
        params,
        set(EPISODE_PARAMS) | set(EPISODE_FLAGS) | set(EPISODE_EXTRAS),
        "episode",
    )
    config = EpisodeConfig(seed=seed)
    for name in EPISODE_PARAMS:
        if name in params:
            setattr(config, name, params[name])
    config.delta_propagation = bool(params.get("delta_propagation", True))
    config.compact_tables = bool(params.get("compact_tables", False))
    config.inject = params.get("inject")

    tree = RngTree(seed)
    if params.get("faults", False):
        plan = generate_fault_plan(
            tree.rng("campaign", "faults"),
            ops=("A", "B"),
            parallelism=config.parallelism,
            servers=config.parallelism,
            max_rules=4,
            allow_crashes=False,
            horizon_s=config.until_s,
        )
        config.fault_plan = fault_plan_to_dict(plan)
    if params.get("rescale", False):
        config.rescales = draw_rescales(
            tree.rng("campaign", "rescale"), config.until_s
        )
    if params.get("hybrid", False):
        config.hybrid = draw_hybrid(tree.rng("campaign", "hybrid"))
    return config


def run_episode_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    from repro.testing.bundle import bundle_data
    from repro.testing.episode import run_episode

    config = episode_config(params, seed)
    result = run_episode(config)
    sim_s = result.sim_now_s or 1.0
    metrics = {
        "sim_tuples_per_s": result.tuples_processed / sim_s,
        "rounds_total": float(result.rounds),
        "rounds_completed": float(result.rounds_completed),
        "rounds_aborted": float(result.rounds_aborted),
        "faults_injected": float(result.faults_injected),
        "violations": float(len(result.violations)),
    }
    return CellOutcome(
        metrics=metrics,
        fingerprint=f"{result.fingerprint:#010x}",
        violations=[v.to_dict() for v in result.violations],
        bundle=bundle_data(result) if result.violations else None,
    )


def run_synthetic_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    """Figures 7-9: from two servers up, locality-aware routing is at
    least as fast as hash-based and faster than worst-case."""
    from repro.analysis.experiments import synthetic_run
    from repro.workloads.synthetic import POLICIES

    _unknown(params, {"parallelism", "locality", "padding"}, "synthetic")
    parallelism = int(params["parallelism"])
    rate = {
        policy: synthetic_run(
            parallelism,
            float(params["locality"]),
            int(params["padding"]),
            policy,
        )["throughput"]
        for policy in POLICIES
    }
    aware = rate["locality-aware"]
    violations: List[dict] = []
    for claim, other, holds in (
        ("at_least_hash_based", "hash-based", aware >= rate["hash-based"]),
        ("beats_worst_case", "worst-case", aware > rate["worst-case"]),
    ):
        if parallelism >= 2 and not holds:
            _claim(
                violations,
                f"synthetic_locality_aware_{claim}",
                f"locality-aware {aware:,.0f} tuples/s, "
                f"{other} {rate[other]:,.0f}",
            )
    return CellOutcome(
        metrics={
            f"{policy.replace('-', '_')}_per_s": value
            for policy, value in rate.items()
        },
        violations=violations,
    )


def run_fig13_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    from repro.analysis.experiments import flickr_run

    _unknown(
        params,
        {"bandwidth_gbps", "padding", "parallelism", "duration_s"},
        "fig13",
    )
    with_reconf, without = (
        flickr_run(
            int(params["parallelism"]),
            int(params["padding"]),
            float(params["bandwidth_gbps"]),
            reconfigure,
            duration_s=float(params["duration_s"]),
        )
        for reconfigure in (True, False)
    )
    before_with = with_reconf["mean_before_first_reconf"]
    after_with = with_reconf["mean_after_first_reconf"]
    after_without = without["mean_after_first_reconf"]
    # Deploying tables and migrating state must not dent throughput.
    # The sampler sees the few-ms migration transient the paper's
    # minutes-scale plot cannot, so the claim is "no sustained dip":
    # past the first reconfiguration no sample at or below half the
    # level before it, and no two consecutive samples below 90 % of it.
    rates = [
        s["throughput"]
        for s in with_reconf["samples"]
        if s["time"] > with_reconf["period_s"]
    ]
    low = [rate < 0.9 * before_with for rate in rates]
    violations: List[dict] = []
    if min(rates) <= 0.5 * before_with or any(map(all, zip(low, low[1:]))):
        _claim(
            violations,
            "fig13_no_sustained_dip",
            f"throughput fell to {min(rates):,.0f} tuples/s or stayed "
            f"low for two samples; {before_with:,.0f} before the "
            f"reconfiguration",
        )
    return CellOutcome(
        metrics={
            "after_with_reconf_per_s": after_with,
            "after_without_reconf_per_s": after_without,
            "before_with_reconf_per_s": before_with,
            "reconf_gain": after_with / after_without if after_without else 0.0,
            "rounds_completed": float(with_reconf["rounds"]),
        },
        violations=violations,
    )


def run_skew_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    from repro.analysis.experiments import skew_run

    _unknown(
        params,
        {"exponent", "flash_share", "policy", "parallelism"},
        "skew",
    )
    row = skew_run(
        int(params["parallelism"]),
        float(params["exponent"]),
        float(params["flash_share"]),
        str(params["policy"]),
    )
    return CellOutcome(
        metrics={
            "tuples_per_s": row["throughput"],
            "locality": row["locality"],
            "load_balance": row["load_balance"],
        }
    )


def run_scale_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    from repro.analysis.experiments import scale_point

    _unknown(params, {"keys"}, "scale")
    row = scale_point(int(params["keys"]))
    return CellOutcome(metrics={k: float(v) for k, v in row.items()})


def _claim(violations: List[dict], invariant: str, detail: str) -> None:
    """Record one broken paper claim as a cell violation dict."""
    violations.append(
        {"invariant": invariant, "detail": detail, "at_s": 0.0}
    )


#: the Twitter-like trace Figures 10-12 run on
PAPER_TRACE = {"tweets_per_week": 30000}
#: the ablations' trace: fewer tweets over a smaller key space
ABLATION_TRACE = {
    "tweets_per_week": 20000,
    "num_locations": 150,
    "base_hashtags": 1500,
    "new_hashtags_per_week": 150,
    "seed": 3,
}


def _twitter(config: Dict[str, int]):
    from repro.workloads import TwitterConfig, TwitterWorkload

    return TwitterWorkload(TwitterConfig(**config))


def run_fig10_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    """The flash-hashtag spread: the same tag must peak in multiple
    locations on multiple days — the reason reconfiguration has to be
    online — and each location's activity is a burst of a couple of
    days, not spread evenly over the trace."""
    from repro.analysis.experiments import flash_tag_series

    _unknown(params, {"weeks"}, "fig10")
    rows = flash_tag_series(_twitter(PAPER_TRACE), int(params["weeks"]))
    by_location: Dict[str, List[tuple]] = {}
    for row in rows:
        by_location.setdefault(row["location"], []).append(
            (row["day"], row["frequency"])
        )
    peak_days = {
        max(series, key=lambda df: df[1])[0]
        for series in by_location.values()
    }
    violations: List[dict] = []
    if len(by_location) < 2:
        _claim(
            violations,
            "fig10_multi_location",
            f"flash tag peaked in {len(by_location)} location(s); "
            f"the paper's premise needs >= 2",
        )
    if len(peak_days) < 2:
        _claim(
            violations,
            "fig10_multi_day",
            f"flash tag peaked on {len(peak_days)} day(s); "
            f"the paper's premise needs >= 2",
        )
    for location, series in sorted(by_location.items()):
        frequencies = [frequency for _, frequency in series]
        mean = sum(frequencies) / len(frequencies)
        if len(frequencies) > 3 and max(frequencies) < 2 * mean:
            _claim(
                violations,
                "fig10_bursty_spikes",
                f"{location}: peak {max(frequencies)} is under twice "
                f"the daily mean {mean:.1f}",
            )
    return CellOutcome(
        metrics={
            "locations": float(len(by_location)),
            "peak_days": float(len(peak_days)),
            "peak_frequency": float(
                max(row["frequency"] for row in rows)
            ),
        },
        violations=violations,
    )


def run_fig11_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    """One routing mode of the weekly locality/balance sweep, with the
    claims that concern that mode alone: hash-based locality sits at
    1/n and its balance is steady, offline tables decay, and freshly
    planned tables start out balanced near the α bound. (The claims
    that compare modes are ``tools/check_fig_shapes.py``'s.)"""
    from repro.analysis.trace_eval import weekly_series

    _unknown(
        params, {"mode", "weeks", "num_servers", "sketch_capacity"}, "fig11"
    )
    mode = str(params["mode"])
    num_servers = int(params["num_servers"])
    results = weekly_series(
        _twitter(PAPER_TRACE).week_pairs,
        int(params["weeks"]),
        num_servers,
        mode,
        sketch_capacity=int(params["sketch_capacity"]),
    )
    if len(results) < 3:
        raise ValueError(
            f"fig11 runner: the claims compare week 1 with the last "
            f"weeks and need weeks >= 3, got {len(results)}"
        )
    locality = [result.locality for result in results]
    balance = [result.load_balance for result in results]
    mean_locality = sum(locality) / len(locality)
    late_locality = sum(locality[-3:]) / len(locality[-3:])
    mean_balance = sum(balance) / len(balance)
    violations: List[dict] = []
    if mode == "hash-based":
        if abs(mean_locality - 1.0 / num_servers) > 0.05:
            _claim(
                violations,
                "fig11_hash_locality_is_one_over_n",
                f"mean locality {mean_locality:.3f} is not within 0.05 "
                f"of 1/{num_servers}",
            )
        if mean_balance >= 1.45 or max(balance) - min(balance) >= 0.5:
            _claim(
                violations,
                "fig11_hash_balance_steady",
                f"load balance mean {mean_balance:.3f} (claim < 1.45), "
                f"range {max(balance) - min(balance):.3f} (claim < 0.5)",
            )
    else:
        # weeks 1-2 are the first ones routed by planned tables
        if min(balance[1:3]) >= 1.35:
            _claim(
                violations,
                "fig11_tables_start_balanced",
                f"best load balance of weeks 1-2 is "
                f"{min(balance[1:3]):.3f} (claim < 1.35)",
            )
    if mode == "offline" and late_locality >= locality[1] - 0.05:
        _claim(
            violations,
            "fig11_offline_decays",
            f"late locality {late_locality:.3f} has not dropped 0.05 "
            f"below week 1's {locality[1]:.3f}",
        )
    return CellOutcome(
        metrics={
            "mean_locality": mean_locality,
            "late_locality": late_locality,
            "mean_balance": mean_balance,
            "weeks": float(len(results)),
        },
        violations=violations,
    )


def run_fig12_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    """One (edge budget, parallelism) point of locality-vs-collected-
    edges. ``budget: 0`` means unlimited (YAML axis values must be
    scalars, so None is spelled 0)."""
    from repro.analysis.experiments import edge_budget_point

    _unknown(params, {"budget", "parallelism"}, "fig12")
    budget = int(params["budget"])
    parallelism = int(params["parallelism"])
    row = edge_budget_point(
        _twitter(PAPER_TRACE), budget if budget > 0 else None, parallelism
    )
    violations: List[dict] = []
    if budget > 0 and budget <= 10:
        # a tiny budget cannot beat hash by much
        ceiling = 1.0 / parallelism + 0.15
        if row["locality"] >= ceiling:
            _claim(
                violations,
                "fig12_tiny_budget_close_to_hash",
                f"budget {budget} reached locality "
                f"{row['locality']:.3f} >= {ceiling:.3f}",
            )
    # bounded memory is enough: under a tenth of the edges already
    # doubles the 1/n locality of hashing on six servers
    if (budget, parallelism) == (1000, 6) and row["locality"] <= 2.0 / 6:
        _claim(
            violations,
            "fig12_bounded_memory_doubles_hash",
            f"budget {budget} reached locality {row['locality']:.3f} <= 2/6",
        )
    if budget <= 0 and row["predicted"] <= row["locality"] + 0.05:
        # Section 4.3: the partitioner scores its tables on the week it
        # saw; the next week brings new keys, so it achieves less
        _claim(
            violations,
            "fig12_predicted_exceeds_achieved",
            f"predicted locality {row['predicted']:.3f} is not 0.05 "
            f"above the {row['locality']:.3f} achieved next week",
        )
    return CellOutcome(
        metrics={
            "locality": float(row["locality"]),
            "predicted_locality": float(row["predicted"]),
            "edges": float(row["edges"]),
        },
        violations=violations,
    )


#: ablation study -> [(claim, what it says, whether it holds)]; the
#: metric names are those of ``repro.analysis.experiments.ablation_*``
ABLATION_CLAIMS = {
    "collector": [
        (
            "ablation_moderate_sketch_near_exact",
            "a 4096-entry sketch gets within 0.08 of exact counting",
            lambda m: m["locality_spacesaving_4096"]
            > m["locality_exact"] - 0.08,
        ),
        (
            "ablation_tiny_sketch_below_exact",
            "a 64-entry sketch is worse than exact counting",
            lambda m: m["locality_spacesaving_64"] < m["locality_exact"],
        ),
    ],
    "period": [
        (
            "ablation_rare_reconfiguration_no_better",
            "reconfiguring every week is at least as local as every 4",
            lambda m: m["mean_locality_period_1"]
            >= m["mean_locality_period_4"],
        ),
    ],
    "estimator": [
        (
            "ablation_long_horizon_deploys_every_round",
            "over a 5e7-tuple horizon every replan is worth deploying",
            lambda m: m["deployed_rounds_horizon_50000000"] == m["rounds"],
        ),
        (
            "ablation_short_horizon_vetoes",
            "over a 100-tuple horizon some replans are vetoed",
            lambda m: m["deployed_rounds_horizon_100"]
            < m["deployed_rounds_horizon_50000000"],
        ),
    ],
    "pkg": [
        (
            "ablation_pkg_balances_better_than_hash",
            "partial key grouping balances a skewed stream better than "
            "hash fields grouping",
            lambda m: m["load_balance_partial_key"]
            < m["load_balance_hash_fields"],
        ),
    ],
    "hierarchical": [
        (
            "ablation_hierarchical_cost_no_worse",
            "two-level partitioning costs at most 1.05 x flat",
            lambda m: m["hierarchical_weighted_cost"]
            <= 1.05 * m["flat_weighted_cost"],
        ),
        (
            "ablation_hierarchical_keeps_server_locality",
            "same-server traffic stays within 0.1 of flat",
            lambda m: m["hierarchical_same_server"]
            > m["flat_same_server"] - 0.1,
        ),
    ],
}


def run_ablation_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    """One ablation study: every variant it compares, and the
    comparison itself as the cell's claims."""
    from repro.analysis.experiments import ABLATIONS

    _unknown(params, {"study"}, "ablation")
    study = str(params["study"])
    if study not in ABLATION_CLAIMS:
        raise ValueError(
            f"ablation runner got unknown study {study!r}; "
            f"one of {sorted(ABLATION_CLAIMS)}"
        )
    if study == "pkg":
        metrics = ABLATIONS[study]()
    else:
        metrics = ABLATIONS[study](_twitter(ABLATION_TRACE))
    violations: List[dict] = []
    for invariant, statement, holds in ABLATION_CLAIMS[study]:
        if not holds(metrics):
            _claim(violations, invariant, f"not so: {statement} ({metrics})")
    return CellOutcome(metrics=metrics, violations=violations)


#: scenarios the ``backend`` runner can replay on both backends
BACKEND_SCENARIOS = ("fig13", "skew", "rescale")

#: the comparison tier of deterministic routing: everything exact
#: (:func:`repro.testing.equivalence.compare_backends`)
EXACT = dict(
    exact_placements=True,
    exact_received=True,
    locality_tol=1e-9,
    balance_tol=1e-9,
)


def _backend_topology_factory(
    scenario: str, params: Dict[str, Any], seed: int
):
    """A zero-arg factory building one *finite* topology per call
    (each backend run needs fresh operator state), the options both
    backends run with, and the comparison tier the scenario's routing
    admits."""
    from repro.engine.backends import BackendOptions

    parallelism = int(params.get("parallelism", 4))
    tuples_per_instance = int(params.get("tuples_per_instance", 1000))

    if scenario == "fig13":
        from repro.workloads.flickr import FlickrConfig, FlickrWorkload

        workload = FlickrWorkload(FlickrConfig(seed=seed))
        padding = int(params.get("padding", 4000))
        factory = lambda: workload.topology(
            parallelism=parallelism,
            padding=padding,
            tuples_per_instance=tuples_per_instance,
        )
        return factory, BackendOptions(), EXACT

    if scenario == "skew":
        from repro.workloads.skew import SkewConfig, SkewWorkload

        policy = str(params.get("policy", "table"))
        config = SkewConfig(
            parallelism=parallelism,
            seed=seed,
            tuples_per_instance=tuples_per_instance,
        )
        factory = lambda: SkewWorkload(config).topology(policy)
        if policy == "hybrid":
            # d-choices picks are load-dependent: totals stay exact,
            # placements only guarantee member-set containment
            return factory, BackendOptions(), dict(
                exact_placements=False,
                exact_received=False,
                locality_tol=0.05,
                balance_tol=0.15,
            )
        return factory, BackendOptions(), EXACT

    if scenario == "rescale":
        # a DES Manager.rescale 2 -> 4 that the candidate replays; the
        # backends swap their spouts at different moments, so what each
        # instance received, and locality, differ by that much
        from repro.core import Manager, ManagerConfig
        from repro.engine import TableFieldsGrouping, count_chain
        from repro.testing.episode import attempt_rescale

        spouts = int(params.get("parallelism", 3))
        per_spout = int(params.get("tuples_per_instance", 2000))

        def source(ctx):
            rng = random.Random(seed * 1000003 + ctx.instance_index)
            for _ in range(per_spout):
                a = rng.randrange(12)
                yield (a, a + 100)

        def attach_manager(deployment):
            manager = Manager(deployment, ManagerConfig(period_s=None))
            sim = deployment.sim
            sim.schedule(0.02, attempt_rescale, sim, manager, 4, math.inf)

        factory = lambda: count_chain(
            source,
            2,
            [TableFieldsGrouping(0), TableFieldsGrouping(1)],
            spouts=spouts,
        )
        options = BackendOptions(num_servers=4, on_deployed=attach_manager)
        return factory, options, dict(
            EXACT, exact_received=False, locality_tol=1.0, balance_tol=1.0
        )

    raise ValueError(
        f"backend runner got unknown scenario {scenario!r}; "
        f"one of {list(BACKEND_SCENARIOS)}"
    )


def run_backend_cell(params: Dict[str, Any], seed: int) -> CellOutcome:
    from repro.testing.equivalence import run_equivalence

    _unknown(
        params,
        {
            "scenario",
            "candidate",
            "parallelism",
            "padding",
            "policy",
            "tuples_per_instance",
        },
        "backend",
    )
    scenario = str(params.get("scenario", "fig13"))
    # "skew-hybrid" style values let a campaign sweep scenario+policy
    # on one (scalar-valued) matrix axis without redundant crossings
    if scenario.startswith("skew-"):
        params = dict(params, policy=scenario.partition("-")[2])
        scenario = "skew"
    factory, options, tier = _backend_topology_factory(
        scenario, params, seed
    )
    report, ref, cand = run_equivalence(
        factory,
        reference_options=options,
        candidate_options=options,
        candidate=str(params.get("candidate", "vectorized")),
        **tier,
    )
    speedup = (
        cand.tuples_per_s / ref.tuples_per_s if ref.tuples_per_s else 0.0
    )
    # wall-clock throughputs deliberately avoid the directed
    # ``_per_s`` suffix: absolute speed is machine noise in CI; the
    # same-machine back-to-back speedup ratio is what gets gated.
    # Metric names carry the candidate backend so a campaign sweeping
    # ``candidate:`` tracks each backend's speedup separately.
    metrics = {
        "reference_throughput": ref.tuples_per_s,
        f"{cand.backend}_throughput": cand.tuples_per_s,
        f"{cand.backend}_speedup_x": speedup,
        "locality_delta": abs(ref.locality - cand.locality),
        "equivalent": 0.0 if report.violations else 1.0,
    }
    if cand.measured:
        # measured (not modeled) run costs — informational axes
        metrics["measured_cpu_ns"] = float(cand.measured["cpu_ns_total"])
        metrics["measured_ipc_bytes"] = float(
            cand.measured["ipc_bytes_total"]
        )
    return CellOutcome(
        metrics=metrics,
        violations=[v.to_dict() for v in report.violations],
    )


RUNNERS: Dict[str, Callable[[Dict[str, Any], int], CellOutcome]] = {
    "episode": run_episode_cell,
    "synthetic": run_synthetic_cell,
    "fig10": run_fig10_cell,
    "fig11": run_fig11_cell,
    "fig12": run_fig12_cell,
    "fig13": run_fig13_cell,
    "skew": run_skew_cell,
    "scale": run_scale_cell,
    "ablation": run_ablation_cell,
    "backend": run_backend_cell,
}


def run_cell(runner: str, params: Dict[str, Any], seed: int) -> CellOutcome:
    """Dispatch one cell to its registered runner."""
    try:
        fn = RUNNERS[runner]
    except KeyError:
        raise ValueError(
            f"unknown runner {runner!r}; one of {sorted(RUNNERS)}"
        ) from None
    return fn(params, seed)
