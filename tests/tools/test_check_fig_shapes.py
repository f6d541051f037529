"""tools/check_fig_shapes.py: the artifact-driven figure-shape gate.

The checker must pass a healthy artifact, flag each broken claim with
a message naming the cell or the cells compared, refuse artifacts of
a campaign without shape claims, and surface crashed cells instead of
skipping them.
"""

import itertools
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


def _synthetic(axes, rates):
    """A Figure 7-9 artifact: ``rates(*point)`` gives the (aware,
    hashed, worst) throughputs of each point of the ``axes`` grid."""
    cells = []
    for point in itertools.product(*axes.values()):
        params = dict(zip(axes, point))
        aware, hashed, worst = rates(**params)
        cells.append(
            {
                "id": ",".join(f"{k}={v}" for k, v in params.items()),
                "status": "ok",
                "params": params,
                "metrics": {
                    shapes.AWARE: aware,
                    shapes.HASHED: hashed,
                    shapes.WORST: worst,
                },
            }
        )
    return cells


FIG7_AXES = {
    "locality": [0.6, 1.0],
    "padding": [0, 20000],
    "parallelism": [1, 2, 6],
}


def _fig7(aware_at_6=590.0, hash_at_6=300.0, padded=1.0, worst=0.8):
    """Linear locality-aware, saturating hash-based; ``padded`` scales
    locality-aware at padding 20000, ``worst`` is worst-case's share of
    locality-aware."""

    def rates(locality, padding, parallelism):
        aware = {1: 100.0, 2: 200.0, 6: aware_at_6}[parallelism]
        hashed = {1: 100.0, 2: 150.0, 6: hash_at_6}[parallelism]
        if padding:
            aware *= padded
        return aware, hashed, worst * aware

    return _synthetic(FIG7_AXES, rates)


def test_fig7_healthy_and_each_doctored_claim():
    assert shapes.fig7_shapes(_fig7()) == []
    violations = shapes.fig7_shapes(_fig7(aware_at_6=530.0))
    assert len(violations) == 1 and "near-linearly" in violations[0]
    violations = shapes.fig7_shapes(_fig7(hash_at_6=340.0))
    assert len(violations) == 1 and "saturate" in violations[0]
    violations = shapes.fig7_shapes(_fig7(padded=0.97))
    assert len(violations) == 3 and all("padding moves" in v for v in violations)
    violations = shapes.fig7_shapes(_fig7(worst=0.95))
    assert len(violations) == 1 and "remote routing costs only" in violations[0]
    # a crashed cell is reported, and so is the hole it leaves in the grid
    cells = _fig7()
    cells[-1]["status"] = "crash"
    violations = shapes.fig7_shapes(cells)
    assert any("crash" in v for v in violations)
    assert any("no ok cell at" in v for v in violations)


FIG8_AXES = {"locality": [0.6, 0.8, 1.0], "parallelism": [2, 6]}


def _fig8(top=1.0, mid=0.8, hash_swing=1.0):
    """Locality-aware climbs to ``top`` x the CPU ceiling through ``mid``
    x it at locality 0.8; hash-based moves ``hash_swing`` x with
    locality."""

    def rates(locality, parallelism):
        ceiling = parallelism / shapes.BOLT_SERVICE_S
        aware = {0.6: 0.7, 0.8: mid, 1.0: top}[locality] * ceiling
        hashed = 0.4 * ceiling * (hash_swing if locality == 1.0 else 1.0)
        return aware, hashed, 0.3 * ceiling

    return _synthetic(FIG8_AXES, rates)


def test_fig8_healthy_and_each_doctored_claim():
    assert shapes.fig8_shapes(_fig8()) == []
    # short of the ceiling, at the largest parallelism only
    violations = shapes.fig8_shapes(_fig8(top=0.97))
    assert len(violations) == 1 and "CPU ceiling" in violations[0]
    # no growth with locality: both parallelisms, and off the ceiling
    violations = shapes.fig8_shapes(_fig8(top=0.75))
    assert sum("does not grow" in v for v in violations) == 2
    violations = shapes.fig8_shapes(_fig8(mid=0.65))
    assert len(violations) == 1 and "not monotone" in violations[0]
    # hash-based must be flat from three servers up, may move on two
    violations = shapes.fig8_shapes(_fig8(hash_swing=1.3))
    assert len(violations) == 1 and "parallelism 6: hash-based" in violations[0]


FIG9_AXES = {"padding": [0, 5000], "parallelism": [2, 6]}


def _fig9(gap_at_hardest=1.6, worst_at_hardest=340.0):
    """The locality-aware / hash-based gap per (padding, parallelism)."""

    def rates(padding, parallelism):
        gap = {
            (0, 2): 1.1,
            (0, 6): 1.2,
            (5000, 2): 1.5,
            (5000, 6): gap_at_hardest,
        }[padding, parallelism]
        hardest = (padding, parallelism) == (5000, 6)
        return 360.0 * gap, 360.0, worst_at_hardest if hardest else 300.0

    return _synthetic(FIG9_AXES, rates)


def test_fig9_healthy_and_each_doctored_claim():
    assert shapes.fig9_shapes(_fig9()) == []
    violations = shapes.fig9_shapes(_fig9(gap_at_hardest=1.4))
    assert len(violations) == 1 and "grow with parallelism" in violations[0]
    violations = shapes.fig9_shapes(_fig9(gap_at_hardest=1.15))
    assert [("padding" in v, "parallelism" in v) for v in violations] == [
        (True, False),
        (False, True),
    ]
    violations = shapes.fig9_shapes(_fig9(worst_at_hardest=200.0))
    assert len(violations) == 1 and "worst-case" in violations[0]


def _fig14(with_reconf=(104.0, 130.0, 156.0), without=(59.0, 64.0, 68.0)):
    return [
        _cell(
            cell_id=f"parallelism={n},seed=0",
            after=after,
            without=base,
        )
        | {"params": {"parallelism": n}}
        for n, after, base in zip((2, 4, 6), with_reconf, without)
    ]


def test_fig14_healthy_and_each_doctored_claim():
    assert shapes.fig14_shapes(_fig14()) == []
    violations = shapes.fig14_shapes(_fig14(without=(59.0, 131.0, 68.0)))
    assert len(violations) == 1 and "parallelism 4" in violations[0]
    violations = shapes.fig14_shapes(_fig14(with_reconf=(104.0, 110.0, 120.0)))
    assert len(violations) == 1 and "does not scale" in violations[0]
    # scales, but the never-reconfigured run keeps pace
    violations = shapes.fig14_shapes(_fig14(without=(59.0, 64.0, 115.0)))
    assert len(violations) == 1 and "lead" in violations[0]
    assert shapes.fig14_shapes([]) == ["no fig14 cells found in the artifact"]


def _write_report(path, campaign, cells):
    header = {
        "schema": "repro.campaign/report-v1",
        "campaign": campaign,
        "runner": "fig13",
    }
    with open(path, "w", encoding="utf-8") as handle:
        for row in [header] + cells:
            handle.write(json.dumps(row) + "\n")


def test_cli_roundtrip(tmp_path):
    path = str(tmp_path / "report.jsonl")
    _write_report(path, "fig13-locality", [_cell()])
    assert shapes.main(["check", path]) == 0
    _write_report(
        path, "fig13-locality", [_cell(), _cell(cell_id="bad", after=1.0)]
    )
    assert shapes.main(["check", path]) == 1
    # the report's campaign selects the check, not its runner: Figure
    # 14 runs fig13 cells under claims of its own
    _write_report(path, "fig14-parallelism", _fig14())
    assert shapes.main(["check", path]) == 0
    _write_report(path, "fig13-locality", _fig14())
    assert shapes.main(["check", path]) == 1
    _write_report(path, "fig11-weekly", _fig11())
    assert shapes.main(["check", path]) == 0
    _write_report(path, "fig12-edges", _fig11())
    assert shapes.main(["check", path]) == 1
    # a campaign without shape claims is a usage error, not a pass
    _write_report(path, "matrix-quick", [])
    assert shapes.main(["check", path]) == 2


def test_cli_usage_error():
    assert shapes.main(["check"]) == 2
    assert shapes.main(["check", "/nonexistent/report.jsonl"]) == 2
