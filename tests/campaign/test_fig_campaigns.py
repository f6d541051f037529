"""The committed campaigns: what they plan, and what their runners claim.

Every campaign's committed baseline must carry exactly the cells the
campaign file plans. A silently narrower YAML matrix would otherwise
pass its own baseline while dropping grid points, and stale ids after
a matrix edit would only show up as a confusing "new cell" diff at
campaign time.

The figure runners assert the paper's per-cell claims as violations;
each claim is shown here to fire on rows doctored to break it (that
none fires on the real rows is what the campaigns themselves show).
"""

import glob
import json
import os

import pytest

from repro.analysis import experiments
from repro.campaign.config import load_campaign
from repro.campaign.planner import plan
from repro.campaign.runners import run_cell

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


def _fig10_rows(frequencies):
    """Three locations peaking on different days, same daily shape."""
    return [
        {"tag": "#flash", "location": loc, "day": day + shift, "frequency": f}
        for shift, loc in enumerate(("VA", "FL", "TX"))
        for day, f in enumerate(frequencies)
    ]


def _fig11_rows(mode, locality, balance):
    return [
        {
            "mode": mode,
            "week": week,
            "locality": loc,
            "load_balance": bal,
            "unseen_fraction": 0.0,
        }
        for week, (loc, bal) in enumerate(zip(locality, balance))
    ]


def _fig13_rows(low, level=80.0):
    """100 tuples/s before the reconfiguration at 0.5 s, 250 after,
    ``level`` at the ``low`` sample indices."""
    samples = [
        {"time": 0.05 * (i + 1), "throughput": 100.0 if i < 10 else 250.0}
        for i in range(30)
    ]
    for index in low:
        samples[index]["throughput"] = level
    row = {
        "samples": samples,
        "mean_before_first_reconf": 100.0,
        "mean_after_first_reconf": 250.0,
        "rounds": 2,
    }
    return [
        dict(row, reconfigure=True),
        dict(row, reconfigure=False, mean_after_first_reconf=100.0),
    ]


FLAT_BALANCE = [1.2, 1.25, 1.3, 1.3, 1.3]

FIG13_CELL = {"bandwidth_gbps": 1.0, "padding": 4000}

#: (runner, params, rows the figure driver returns, claims they break)
CLAIM_CASES = {
    "fig10-even-activity": (
        "fig10",
        {},
        _fig10_rows([9, 10, 12, 10, 9]),
        ["fig10_bursty_spikes"],
    ),
    "fig11-hash-off-and-unsteady": (
        "fig11",
        {"mode": "hash-based"},
        _fig11_rows("hash-based", [0.30] * 5, [1.2, 1.3, 1.25, 1.3, 1.8]),
        ["fig11_hash_locality_is_one_over_n", "fig11_hash_balance_steady"],
    ),
    "fig11-offline-without-decay": (
        "fig11",
        {"mode": "offline"},
        _fig11_rows("offline", [0.17, 0.6, 0.6, 0.6, 0.6], FLAT_BALANCE),
        ["fig11_offline_decays"],
    ),
    "fig11-online-unbalanced-start": (
        "fig11",
        {"mode": "online"},
        _fig11_rows(
            "online", [0.17, 0.6, 0.6, 0.6, 0.6], [1.2, 1.4, 1.5, 1.2, 1.2]
        ),
        ["fig11_tables_start_balanced"],
    ),
    "fig12-unlimited-prediction-met": (
        "fig12",
        {"budget": 0, "parallelism": 6},
        [{"locality": 0.6, "predicted": 0.62, "edges": 3528}],
        ["fig12_predicted_exceeds_achieved"],
    ),
    # the side claim is about the unlimited cell only
    "fig12-limited-prediction-met": (
        "fig12",
        {"budget": 1000, "parallelism": 6},
        [{"locality": 0.6, "predicted": 0.6, "edges": 1000}],
        [],
    ),
    # one low sample right after the swap is the migration transient
    "fig13-transient": ("fig13", FIG13_CELL, _fig13_rows(low=[10]), []),
    "fig13-sustained-dip": (
        "fig13",
        FIG13_CELL,
        _fig13_rows(low=[10, 11]),
        ["fig13_no_sustained_dip"],
    ),
    "fig13-collapse": (
        "fig13",
        FIG13_CELL,
        _fig13_rows(low=[15], level=40.0),
        ["fig13_no_sustained_dip"],
    ),
}


@pytest.mark.parametrize(
    "runner, params, rows, broken",
    list(CLAIM_CASES.values()),
    ids=list(CLAIM_CASES),
)
def test_runner_claims_fire_on_doctored_rows(
    monkeypatch, runner, params, rows, broken
):
    monkeypatch.setattr(experiments, runner, lambda **kwargs: rows)
    outcome = run_cell(runner, params, seed=0)
    fired = [v["invariant"] for v in outcome.violations]
    assert list(dict.fromkeys(fired)) == broken
