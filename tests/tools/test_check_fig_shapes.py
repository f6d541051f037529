"""tools/check_fig_shapes.py: the artifact-driven figure-shape gate.

The checker must pass a healthy artifact, flag each broken claim with
a message naming the cell or the cells compared, refuse artifacts of
another runner, and surface crashed cells instead of skipping them.
"""

import json
import os
import sys

import pytest

_TOOLS = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ),
    "tools",
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import check_fig_shapes as shapes  # noqa: E402


def _cell(
    cell_id="bandwidth_gbps=1,padding=4000,seed=0",
    before=40_000.0,
    after=120_000.0,
    without=50_000.0,
    rounds=1.0,
    bandwidth=1.0,
    status="ok",
    padding=4000,
):
    return {
        "id": cell_id,
        "status": status,
        "runner": "fig13",
        "params": {"bandwidth_gbps": bandwidth, "padding": padding},
        "metrics": {
            "before_with_reconf_per_s": before,
            "after_with_reconf_per_s": after,
            "after_without_reconf_per_s": without,
            "reconf_gain": after / without if without else 0.0,
            "rounds_completed": rounds,
        },
    }


def test_healthy_artifact_passes():
    assert shapes.fig13_shapes([_cell(), _cell(bandwidth=10.0)]) == []


def test_missing_jump_flagged():
    violations = shapes.fig13_shapes([_cell(after=45_000.0)])
    assert any("jump" in v for v in violations)


def test_losing_to_no_reconf_flagged():
    violations = shapes.fig13_shapes(
        [_cell(after=55_000.0, without=50_000.0)]
    )
    assert any("beat" in v for v in violations)


def test_slow_network_gain_floor():
    # jump and win hold (3x before, 1.5x without) but gain < 1.8
    violations = shapes.fig13_shapes(
        [_cell(before=40_000.0, after=126_000.0, without=80_000.0)]
    )
    assert any("1 Gb/s" in v for v in violations)
    # same numbers on the fast network: no gain-floor claim there
    assert (
        shapes.fig13_shapes(
            [
                _cell(
                    before=40_000.0,
                    after=126_000.0,
                    without=80_000.0,
                    bandwidth=10.0,
                )
            ]
        )
        == []
    )


def test_gain_must_grow_with_tuple_size_on_the_fast_network():
    def grid(large_after):
        return [
            _cell(bandwidth=10.0, padding=4000, after=100_000.0),
            _cell(bandwidth=10.0, padding=8000, after=90_000.0),
            _cell(bandwidth=10.0, padding=12000, after=large_after),
        ]

    assert shapes.fig13_shapes(grid(large_after=110_000.0)) == []
    # gain 2.0x at both ends: every per-cell claim still holds
    violations = shapes.fig13_shapes(grid(large_after=100_000.0))
    assert len(violations) == 1 and "grow with tuple size" in violations[0]
    # the 1 Gb/s gain is at its ceiling at every padding: no such claim
    assert (
        shapes.fig13_shapes(
            [_cell(padding=4000), _cell(padding=12000)]
        )
        == []
    )


def test_no_rounds_flagged():
    violations = shapes.fig13_shapes([_cell(rounds=0.0)])
    assert any("round" in v for v in violations)


def test_crashed_cell_flagged_not_skipped():
    violations = shapes.fig13_shapes([_cell(status="crash")])
    assert violations and "crash" in violations[0]


def test_wrong_artifact_rejected():
    row = {"id": "x", "status": "ok", "runner": "fig13", "metrics": {}}
    violations = shapes.fig13_shapes([row])
    assert any("not a fig13" in v for v in violations)


def test_empty_artifact_rejected():
    assert shapes.fig13_shapes([]) == [
        "no fig13 cells found in the artifact"
    ]


def _fig11(online=(0.55, 0.60), offline=(0.43, 0.42), hashed=(0.18, 0.17)):
    modes = {"online": online, "offline": offline, "hash-based": hashed}
    return [
        {
            "id": f"mode={mode},seed=0",
            "status": "ok",
            "params": {"mode": mode},
            "metrics": {"mean_locality": mean, "late_locality": late},
        }
        for mode, (mean, late) in modes.items()
    ]


def test_fig11_healthy_and_each_doctored_claim():
    assert shapes.fig11_shapes(_fig11()) == []
    violations = shapes.fig11_shapes(_fig11(online=(0.44, 0.60)))
    assert len(violations) == 1 and "online mean locality" in violations[0]
    violations = shapes.fig11_shapes(_fig11(offline=(0.35, 0.42)))
    assert len(violations) == 1 and "offline mean locality" in violations[0]
    # offline that does not decay: online is no longer clearly above it
    violations = shapes.fig11_shapes(_fig11(offline=(0.43, 0.56)))
    assert len(violations) == 1 and "late in the trace" in violations[0]
    # a crashed mode is reported twice over, not skipped
    cells = _fig11()
    cells[0]["status"] = "timeout"
    violations = shapes.fig11_shapes(cells)
    assert any("timeout" in v for v in violations)
    assert any("mode(s) ['online']" in v for v in violations)


def test_fig12_locality_must_grow_with_budget():
    def grid(unlimited_at_6):
        points = [
            (10, 2, 10, 0.50),
            (1000, 2, 1000, 0.78),  # budgets in between may wiggle
            (0, 2, 3528, 0.77),
            (10, 6, 10, 0.21),
            (0, 6, 3528, unlimited_at_6),
        ]
        return [
            {
                "id": f"budget={budget},parallelism={parallelism},seed=0",
                "status": "ok",
                "params": {"budget": budget, "parallelism": parallelism},
                "metrics": {"locality": locality, "edges": float(edges)},
            }
            for budget, parallelism, edges, locality in points
        ]

    assert shapes.fig12_shapes(grid(0.61)) == []
    violations = shapes.fig12_shapes(grid(0.20))
    assert len(violations) == 1 and "parallelism 6" in violations[0]


def _write_report(path, runner, cells):
    header = {
        "schema": "repro.campaign/report-v1",
        "campaign": "f",
        "runner": runner,
    }
    with open(path, "w", encoding="utf-8") as handle:
        for row in [header] + cells:
            handle.write(json.dumps(row) + "\n")


def test_cli_roundtrip(tmp_path):
    path = str(tmp_path / "report.jsonl")
    _write_report(path, "fig13", [_cell()])
    assert shapes.main(["check", path]) == 0
    _write_report(path, "fig13", [_cell(), _cell(cell_id="bad", after=1.0)])
    assert shapes.main(["check", path]) == 1
    # the report's runner selects the check
    _write_report(path, "fig11", _fig11())
    assert shapes.main(["check", path]) == 0
    _write_report(path, "fig12", _fig11())
    assert shapes.main(["check", path]) == 1
    # a runner without shape claims is a usage error, not a pass
    _write_report(path, "episode", [])
    assert shapes.main(["check", path]) == 2


def test_cli_usage_error():
    assert shapes.main(["check"]) == 2
    assert shapes.main(["check", "/nonexistent/report.jsonl"]) == 2
