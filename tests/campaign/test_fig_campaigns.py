"""The committed campaigns: what they plan, and what their runners claim.

Every campaign's committed baseline must carry exactly the cells the
campaign file plans. A silently narrower YAML matrix would otherwise
pass its own baseline while dropping grid points, and stale ids after
a matrix edit would only show up as a confusing "new cell" diff at
campaign time.

The experiment runners assert the per-cell claims as violations; each
claim is shown here to fire on point-function output doctored to break
it (that none fires on the real output is what the campaigns
themselves show).
"""

import glob
import json
import os
import sys

import pytest

from repro.analysis.trace_eval import EvalResult
from repro.campaign.config import RUNNER_NAMES, load_campaign
from repro.campaign.planner import plan
from repro.campaign.runners import RUNNERS, run_cell

CAMPAIGNS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "campaigns",
)
CAMPAIGN_FILES = sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(CAMPAIGNS_DIR, "*.yaml"))
)


def _plan(filename):
    config = load_campaign(os.path.join(CAMPAIGNS_DIR, filename))
    return config, plan(config)


@pytest.mark.parametrize("filename", CAMPAIGN_FILES)
def test_planned_cells_are_the_baseline_cells(filename):
    config, cells = _plan(filename)
    with open(config.baseline_path(), "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert baseline["campaign"] == config.name
    planned = {cell.id for cell in cells}
    assert set(baseline["cells"]) == planned
    assert set(baseline.get("fingerprints", planned)) == planned


def test_every_runner_and_every_cross_cell_claim_is_asserted_somewhere():
    """A runner no campaign names, or a figure campaign the shape gate
    has no entry for, is a claim asserted by nothing."""
    sys.path.insert(0, os.path.join(os.path.dirname(CAMPAIGNS_DIR), "tools"))
    try:
        from check_fig_shapes import CHECKS
    finally:
        sys.path.pop(0)
    campaigns = {
        config.name: config.runner
        for config in (_plan(filename)[0] for filename in CAMPAIGN_FILES)
    }
    assert set(campaigns.values()) == set(RUNNERS) == set(RUNNER_NAMES)
    # fig10 is one cell: it has nothing to compare
    figures = {name for name in campaigns if name.startswith("fig")}
    assert set(CHECKS) == figures - {"fig10-flash"}


def test_backend_equivalence_covers_both_candidates():
    config, cells = _plan("backend-equivalence.yaml")
    assert config.runner == "backend"
    scenarios = {"fig13", "skew-table", "skew-hash", "skew-hybrid", "rescale"}
    planned = {
        (cell.assignment["scenario"], cell.assignment["candidate"])
        for cell in cells
    }
    assert planned == {
        (scenario, candidate)
        for scenario in scenarios
        for candidate in ("vectorized", "multiprocess")
    }


# ----------------------------------------------------------------------
# Per-cell claims of the figure runners, on doctored rows
# ----------------------------------------------------------------------


EXPERIMENTS = "repro.analysis.experiments."


def _synthetic(aware, hashed, worst):
    rates = {"locality-aware": aware, "hash-based": hashed, "worst-case": worst}
    return lambda parallelism, locality, padding, policy: {
        "throughput": rates[policy]
    }


def _fig10_rows(frequencies):
    """Three locations peaking on different days, same daily shape."""
    rows = [
        {"tag": "#flash", "location": loc, "day": day + shift, "frequency": f}
        for shift, loc in enumerate(("VA", "FL", "TX"))
        for day, f in enumerate(frequencies)
    ]
    return lambda workload, weeks: rows


def _fig11_weeks(locality, balance):
    results = [
        EvalResult(locality=loc, load_balance=bal)
        for loc, bal in zip(locality, balance)
    ]
    return lambda week_pairs, weeks, num_servers, mode, **kwargs: results


def _fig12_point(**row):
    return lambda workload, budget, parallelism: row


def _fig13_runs(low, level=80.0):
    """100 tuples/s before the reconfiguration at 0.5 s, 250 after,
    ``level`` at the ``low`` sample indices."""
    samples = [
        {"time": 0.05 * (i + 1), "throughput": 100.0 if i < 10 else 250.0}
        for i in range(30)
    ]
    for index in low:
        samples[index]["throughput"] = level
    row = {
        "period_s": 0.5,
        "samples": samples,
        "mean_before_first_reconf": 100.0,
        "mean_after_first_reconf": 250.0,
        "rounds": 2,
    }
    return lambda parallelism, padding, bandwidth, reconfigure, duration_s: (
        dict(row, mean_after_first_reconf=250.0 if reconfigure else 100.0)
    )


FLAT_BALANCE = [1.2, 1.25, 1.3, 1.3, 1.3]

SYNTHETIC_CELL = {"parallelism": 2, "locality": 0.6, "padding": 0}
FIG11_CELL = {"weeks": 5, "num_servers": 6, "sketch_capacity": 1000}
FIG13_CELL = {
    "bandwidth_gbps": 1.0,
    "padding": 4000,
    "parallelism": 6,
    "duration_s": 1.5,
}

#: a clean result of every ablation study
ABLATION_METRICS = {
    "collector": {
        "locality_exact": 0.68,
        "locality_spacesaving_4096": 0.64,
        "locality_spacesaving_64": 0.27,
    },
    "period": {"mean_locality_period_1": 0.66, "mean_locality_period_4": 0.57},
    "estimator": {
        "rounds": 6.0,
        "deployed_rounds_horizon_50000000": 6.0,
        "deployed_rounds_horizon_100": 0.0,
    },
    "pkg": {"load_balance_hash_fields": 2.4, "load_balance_partial_key": 1.0},
    "hierarchical": {
        "flat_weighted_cost": 0.50,
        "flat_same_server": 0.83,
        "hierarchical_weighted_cost": 0.51,
        "hierarchical_same_server": 0.83,
    },
}


def _ablation(study, broken, **doctored):
    """The ``ablation`` case of ``study`` with some metrics replaced."""
    metrics = dict(ABLATION_METRICS[study], **doctored)
    return (
        "ablation",
        {"study": study},
        EXPERIMENTS + "ABLATIONS",
        {study: lambda *workload: metrics},
        broken,
    )


#: (runner, params, the point function replaced, its stand-in, the
#: claims the stand-in's output breaks)
CLAIM_CASES = {
    "synthetic-clean": (
        "synthetic",
        SYNTHETIC_CELL,
        EXPERIMENTS + "synthetic_run",
        _synthetic(150.0, 150.0, 70.0),
        [],
    ),
    "synthetic-behind-hash": (
        "synthetic",
        SYNTHETIC_CELL,
        EXPERIMENTS + "synthetic_run",
        _synthetic(150.0, 151.0, 70.0),
        ["synthetic_locality_aware_at_least_hash_based"],
    ),
    "synthetic-level-with-worst-case": (
        "synthetic",
        SYNTHETIC_CELL,
        EXPERIMENTS + "synthetic_run",
        _synthetic(150.0, 150.0, 150.0),
        ["synthetic_locality_aware_beats_worst_case"],
    ),
    # one server has nothing remote: the policies coincide
    "synthetic-one-server": (
        "synthetic",
        dict(SYNTHETIC_CELL, parallelism=1),
        EXPERIMENTS + "synthetic_run",
        _synthetic(100.0, 101.0, 101.0),
        [],
    ),
    "fig10-even-activity": (
        "fig10",
        {"weeks": 8},
        EXPERIMENTS + "flash_tag_series",
        _fig10_rows([9, 10, 12, 10, 9]),
        ["fig10_bursty_spikes"],
    ),
    "fig11-hash-off-and-unsteady": (
        "fig11",
        dict(FIG11_CELL, mode="hash-based"),
        "repro.analysis.trace_eval.weekly_series",
        _fig11_weeks([0.30] * 5, [1.2, 1.3, 1.25, 1.3, 1.8]),
        ["fig11_hash_locality_is_one_over_n", "fig11_hash_balance_steady"],
    ),
    "fig11-offline-without-decay": (
        "fig11",
        dict(FIG11_CELL, mode="offline"),
        "repro.analysis.trace_eval.weekly_series",
        _fig11_weeks([0.17, 0.6, 0.6, 0.6, 0.6], FLAT_BALANCE),
        ["fig11_offline_decays"],
    ),
    "fig11-online-unbalanced-start": (
        "fig11",
        dict(FIG11_CELL, mode="online"),
        "repro.analysis.trace_eval.weekly_series",
        _fig11_weeks([0.17, 0.6, 0.6, 0.6, 0.6], [1.2, 1.4, 1.5, 1.2, 1.2]),
        ["fig11_tables_start_balanced"],
    ),
    "fig12-unlimited-prediction-met": (
        "fig12",
        {"budget": 0, "parallelism": 6},
        EXPERIMENTS + "edge_budget_point",
        _fig12_point(locality=0.6, predicted=0.62, edges=3528),
        ["fig12_predicted_exceeds_achieved"],
    ),
    # the side claim is about the unlimited cell only
    "fig12-limited-prediction-met": (
        "fig12",
        {"budget": 1000, "parallelism": 6},
        EXPERIMENTS + "edge_budget_point",
        _fig12_point(locality=0.6, predicted=0.6, edges=1000),
        [],
    ),
    "fig12-bounded-memory-not-enough": (
        "fig12",
        {"budget": 1000, "parallelism": 6},
        EXPERIMENTS + "edge_budget_point",
        _fig12_point(locality=0.33, predicted=0.5, edges=1000),
        ["fig12_bounded_memory_doubles_hash"],
    ),
    # ... which is a claim about six servers: 2/n is out of reach on two
    "fig12-bounded-memory-two-servers": (
        "fig12",
        {"budget": 1000, "parallelism": 2},
        EXPERIMENTS + "edge_budget_point",
        _fig12_point(locality=0.8, predicted=0.9, edges=1000),
        [],
    ),
    # one low sample right after the swap is the migration transient
    "fig13-transient": (
        "fig13",
        FIG13_CELL,
        EXPERIMENTS + "flickr_run",
        _fig13_runs(low=[10]),
        [],
    ),
    "fig13-sustained-dip": (
        "fig13",
        FIG13_CELL,
        EXPERIMENTS + "flickr_run",
        _fig13_runs(low=[10, 11]),
        ["fig13_no_sustained_dip"],
    ),
    "fig13-collapse": (
        "fig13",
        FIG13_CELL,
        EXPERIMENTS + "flickr_run",
        _fig13_runs(low=[15], level=40.0),
        ["fig13_no_sustained_dip"],
    ),
    "ablation-collector-clean": _ablation("collector", []),
    "ablation-collector-sketches-useless": _ablation(
        "collector",
        ["ablation_moderate_sketch_near_exact"],
        locality_spacesaving_4096=0.60,
    ),
    "ablation-collector-tiny-sketch-enough": _ablation(
        "collector",
        ["ablation_tiny_sketch_below_exact"],
        locality_spacesaving_64=0.68,
    ),
    "ablation-period-clean": _ablation("period", []),
    "ablation-period-rare-is-better": _ablation(
        "period",
        ["ablation_rare_reconfiguration_no_better"],
        mean_locality_period_4=0.67,
    ),
    "ablation-estimator-clean": _ablation("estimator", []),
    "ablation-estimator-vetoes-a-long-horizon": _ablation(
        "estimator",
        ["ablation_long_horizon_deploys_every_round"],
        deployed_rounds_horizon_50000000=5.0,
    ),
    "ablation-estimator-never-vetoes": _ablation(
        "estimator",
        ["ablation_short_horizon_vetoes"],
        deployed_rounds_horizon_100=6.0,
    ),
    "ablation-pkg-clean": _ablation("pkg", []),
    "ablation-pkg-no-better-than-hash": _ablation(
        "pkg",
        ["ablation_pkg_balances_better_than_hash"],
        load_balance_partial_key=2.4,
    ),
    "ablation-hierarchical-clean": _ablation("hierarchical", []),
    "ablation-hierarchical-costly": _ablation(
        "hierarchical",
        ["ablation_hierarchical_cost_no_worse"],
        hierarchical_weighted_cost=0.53,
    ),
    "ablation-hierarchical-loses-server-locality": _ablation(
        "hierarchical",
        ["ablation_hierarchical_keeps_server_locality"],
        hierarchical_same_server=0.72,
    ),
}


@pytest.mark.parametrize(
    "runner, params, target, stand_in, broken",
    list(CLAIM_CASES.values()),
    ids=list(CLAIM_CASES),
)
def test_runner_claims_fire_on_doctored_rows(
    monkeypatch, runner, params, target, stand_in, broken
):
    monkeypatch.setattr(target, stand_in)
    outcome = run_cell(runner, params, seed=0)
    fired = [v["invariant"] for v in outcome.violations]
    assert list(dict.fromkeys(fired)) == broken
