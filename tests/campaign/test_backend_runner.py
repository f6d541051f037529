"""The ``backend`` campaign runner: cross-backend equivalence cells.

Pinned behaviors: the runner is registered and validates its
parameters strictly like the other runners; ``both`` cells report the
speedup axes and zero violations on deterministic scenarios;
``skew-<policy>`` scenario values expand to the skew scenario with
that policy; the rescale scenario replays every round the DES manager
committed and stays equivalent.
"""

import pytest

from repro.campaign.config import RUNNER_NAMES, validate
from repro.campaign.runners import (
    BACKEND_SCENARIOS,
    RUNNERS,
    run_backend_cell,
    run_cell,
)

QUICK = {"tuples_per_instance": 200, "parallelism": 3}


def test_backend_runner_registered():
    assert "backend" in RUNNER_NAMES
    assert "backend" in RUNNERS
    assert set(BACKEND_SCENARIOS) == {"fig13", "skew", "rescale"}


def test_backend_runner_accepted_by_config_validation():
    config = validate(
        {
            "campaign": "be",
            "runner": "backend",
            "matrix": {"scenario": ["fig13", "skew-table"]},
        }
    )
    assert config.runner == "backend"


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        run_backend_cell({"scenario": "fig13", "bogus": 1}, seed=0)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_backend_cell({"scenario": "nope", **QUICK}, seed=0)


def test_fig13_cell_equivalent_with_speedup_axes():
    outcome = run_cell(
        "backend", {"scenario": "fig13", "padding": 0, **QUICK}, seed=0
    )
    assert outcome.ok, outcome.violations
    assert outcome.metrics["equivalent"] == 1.0
    assert outcome.metrics["locality_delta"] == 0.0
    assert outcome.metrics["vectorized_speedup_x"] > 0
    assert outcome.metrics["vectorized_throughput"] > 0
    assert outcome.metrics["reference_throughput"] > 0


@pytest.mark.parametrize("scenario", ["skew-table", "skew-hash"])
def test_skew_policy_scenarios_equivalent(scenario):
    outcome = run_backend_cell({"scenario": scenario, **QUICK}, seed=0)
    assert outcome.ok, outcome.violations
    assert outcome.metrics["equivalent"] == 1.0


def test_skew_hybrid_relaxes_placements_but_stays_equivalent():
    outcome = run_backend_cell({"scenario": "skew-hybrid", **QUICK}, seed=0)
    assert outcome.ok, outcome.violations


def test_rescale_scenario_replays_des_decision():
    outcome = run_backend_cell(
        {"scenario": "rescale", "tuples_per_instance": 500}, seed=3
    )
    assert outcome.ok, outcome.violations
    assert outcome.metrics["equivalent"] == 1.0



def test_rescale_scenario_replays_on_real_processes():
    outcome = run_backend_cell(
        {
            "scenario": "rescale",
            "candidate": "multiprocess",
            "tuples_per_instance": 500,
        },
        seed=3,
    )
    assert outcome.ok, outcome.violations
    assert outcome.metrics["measured_ipc_bytes"] > 0
