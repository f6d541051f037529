"""Assert the paper-claim shapes of Figures 11-13 from a campaign artifact.

The figure campaigns (``campaigns/fig1*.yaml``) are the one place
Figures 10-13 are run. A claim about one cell is asserted where the
cell runs (a violation in ``repro.campaign.runners``); a claim that
*compares* cells cannot be, because every cell runs in its own
process. Those are checked here, off the ``report.jsonl`` the campaign
wrote, so one campaign run feeds both the regression baseline and the
figure-shape gate — no second sweep, no drift between what was
measured and what was asserted. The report's ``runner`` selects the
check; the claims are the docstrings of the ``figNN_shapes`` functions.

A cell that did not finish ``ok`` is a violation, never skipped. A
grid that lost cells is not this tool's concern: the campaign's own
baseline gate fails on a missing cell.

Usage::

    python tools/check_fig_shapes.py results/campaigns/fig13-locality/report.jsonl
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

#: Figure 11: mean locality as a multiple of hash-based's, and how far
#: online stays above offline over the last weeks
ONLINE_OVER_HASH = 2.5
OFFLINE_OVER_HASH = 2.0
ONLINE_LATE_MARGIN = 0.05

#: Figure 13
JUMP_RATIO = 1.25
WIN_RATIO = 1.20
SLOW_NETWORK_GBPS = 1.0
SLOW_NETWORK_MIN_GAIN = 1.8
FAST_NETWORK_GBPS = 10.0
GAIN_GROWTH_RATIO = 1.02


def load_report(path: str) -> Tuple[dict, List[dict]]:
    """The header row and the cell rows of a campaign ``report.jsonl``."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    header = next((row for row in rows if row.get("schema")), {})
    return header, [row for row in rows if not row.get("schema")]


def _ok_cells(
    cells: Iterable[dict],
    figure: str,
    required: Sequence[str],
    violations: List[str],
) -> List[dict]:
    """The cells a shape can be asserted on. A cell that did not end
    ``ok`` or lacks a required metric is reported — a crashed cell
    must not silently pass the shape gate — and so is an artifact with
    no usable cell at all."""
    usable = []
    for cell in cells:
        cell_id = cell.get("id", "<cell>")
        missing = [k for k in required if k not in cell.get("metrics", {})]
        if cell.get("status") != "ok":
            violations.append(
                f"{cell_id}: status {cell.get('status')!r}, cannot "
                f"assert shapes"
            )
        elif missing:
            violations.append(
                f"{cell_id}: metrics missing {missing} — not a {figure} "
                f"campaign artifact?"
            )
        else:
            usable.append(cell)
    if not usable:
        violations.append(f"no {figure} cells found in the artifact")
    return usable


def fig11_shapes(cells: Iterable[dict]) -> List[str]:
    """One cell per routing mode. Online mean locality is at least
    2.5x, offline at least 2.0x the hash-based mean; late in the trace
    online stays more than 0.05 above offline (correlations fluctuate,
    so tables planned once decay)."""
    violations: List[str] = []
    by_mode = {
        cell.get("params", {}).get("mode"): cell["metrics"]
        for cell in _ok_cells(
            cells, "fig11", ("mean_locality", "late_locality"), violations
        )
    }
    absent = [
        mode
        for mode in ("online", "offline", "hash-based")
        if mode not in by_mode
    ]
    if absent:
        violations.append(f"no ok cell for mode(s) {absent}")
        return violations
    hash_mean = by_mode["hash-based"]["mean_locality"]
    for mode, ratio in (
        ("online", ONLINE_OVER_HASH),
        ("offline", OFFLINE_OVER_HASH),
    ):
        mean = by_mode[mode]["mean_locality"]
        if mean < ratio * hash_mean:
            violations.append(
                f"{mode} mean locality {mean:.3f} is under {ratio} x "
                f"hash-based {hash_mean:.3f}"
            )
    online_late = by_mode["online"]["late_locality"]
    offline_late = by_mode["offline"]["late_locality"]
    if online_late <= offline_late + ONLINE_LATE_MARGIN:
        violations.append(
            f"online does not stay above offline late in the trace "
            f"({online_late:.3f} <= {offline_late:.3f} + "
            f"{ONLINE_LATE_MARGIN})"
        )
    return violations


def fig12_shapes(cells: Iterable[dict]) -> List[str]:
    """Budget x parallelism. For each parallelism, more collected edges
    give better locality: the largest budget beats the smallest."""
    violations: List[str] = []
    by_parallelism: Dict[object, List[dict]] = {}
    for cell in _ok_cells(cells, "fig12", ("locality", "edges"), violations):
        by_parallelism.setdefault(
            cell.get("params", {}).get("parallelism"), []
        ).append(cell["metrics"])
    for parallelism, series in by_parallelism.items():
        series.sort(key=lambda metrics: metrics["edges"])
        fewest, most = series[0], series[-1]
        if most is not fewest and most["locality"] <= fewest["locality"]:
            violations.append(
                f"parallelism {parallelism}: locality "
                f"{most['locality']:.3f} with {most['edges']:,.0f} edges "
                f"does not beat {fewest['locality']:.3f} with "
                f"{fewest['edges']:,.0f}"
            )
    return violations


def fig13_shapes(cells: Iterable[dict]) -> List[str]:
    """Bandwidth x padding. Per cell: a reconfiguration round ran;
    throughput after it exceeds the mean before it by > 25 % (the
    jump) and the never-reconfigured run's steady state by > 20 % (the
    win); on the throttled 1 Gb/s network the gain exceeds 1.8x (the
    NIC-bound regime where locality matters most). Across cells: on
    10 Gb/s, where the small-tuple runs are partly CPU-bound, the gain
    grows with tuple size. (On 1 Gb/s the model is NIC-saturated at
    every padding: the gain is already at its ceiling, the remote-byte
    ratio, and stays flat and large.)"""
    violations: List[str] = []
    usable = _ok_cells(
        cells,
        "fig13",
        (
            "before_with_reconf_per_s",
            "after_with_reconf_per_s",
            "after_without_reconf_per_s",
            "rounds_completed",
        ),
        violations,
    )
    fast_gain: Dict[float, float] = {}  # padding -> gain on 10 Gb/s
    for cell in usable:
        cell_id = cell.get("id", "<cell>")
        metrics: Dict[str, float] = cell["metrics"]
        before = metrics["before_with_reconf_per_s"]
        after = metrics["after_with_reconf_per_s"]
        without = metrics["after_without_reconf_per_s"]
        if metrics["rounds_completed"] < 1:
            violations.append(f"{cell_id}: no reconfiguration round ran")
        if after <= JUMP_RATIO * before:
            violations.append(
                f"{cell_id}: no post-reconfiguration jump "
                f"(after {after:,.0f} <= {JUMP_RATIO} x "
                f"before {before:,.0f})"
            )
        if after <= WIN_RATIO * without:
            violations.append(
                f"{cell_id}: reconfiguration does not beat the "
                f"no-reconfiguration run (after {after:,.0f} <= "
                f"{WIN_RATIO} x without {without:,.0f})"
            )
        params = cell.get("params", {})
        bandwidth = params.get("bandwidth_gbps")
        if without <= 0:
            continue
        gain = after / without
        if bandwidth == SLOW_NETWORK_GBPS and gain <= SLOW_NETWORK_MIN_GAIN:
            violations.append(
                f"{cell_id}: gain {gain:.2f}x on the "
                f"{SLOW_NETWORK_GBPS:g} Gb/s network (expected "
                f"> {SLOW_NETWORK_MIN_GAIN}x)"
            )
        if bandwidth == FAST_NETWORK_GBPS and "padding" in params:
            fast_gain[params["padding"]] = gain
    if len(fast_gain) > 1:
        small, large = min(fast_gain), max(fast_gain)
        if fast_gain[large] <= GAIN_GROWTH_RATIO * fast_gain[small]:
            violations.append(
                f"gain does not grow with tuple size on the "
                f"{FAST_NETWORK_GBPS:g} Gb/s network "
                f"({fast_gain[large]:.2f}x at padding {large} <= "
                f"{GAIN_GROWTH_RATIO} x {fast_gain[small]:.2f}x at "
                f"padding {small})"
            )
    return violations


#: campaign runner -> its shape check
CHECKS = {"fig11": fig11_shapes, "fig12": fig12_shapes, "fig13": fig13_shapes}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        header, cells = load_report(argv[1])
    except (OSError, ValueError) as exc:
        print(f"cannot read artifact: {exc}", file=sys.stderr)
        return 2
    runner = header.get("runner")
    if runner not in CHECKS:
        print(
            f"no shape claims for runner {runner!r}; one of "
            f"{sorted(CHECKS)}",
            file=sys.stderr,
        )
        return 2
    violations = CHECKS[runner](cells)
    if violations:
        print(f"{runner} shape check: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"{runner} shape check: all claims hold across the artifact")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
