"""Assert the cross-cell claims of Figures 7-9 and 11-14 on a campaign report.

The figure campaigns (``campaigns/fig*.yaml``) are the one place the
paper's figures are run. A claim about one cell is asserted where the
cell runs (a violation in ``repro.campaign.runners``); a claim that
*compares* cells cannot be, because every cell runs in its own
process. Those are checked here, off the ``report.jsonl`` the campaign
wrote, so one campaign run feeds both the regression baseline and the
figure-shape gate — no second sweep, no drift between what was
measured and what was asserted. The report's ``campaign`` selects the
check (two campaigns may share a runner and still carry different
claims); the claims are the docstrings of the ``figNN_shapes``
functions.

A cell that did not finish ``ok`` is a violation, never skipped. A
grid that lost cells is not this tool's concern: the campaign's own
baseline gate fails on a missing cell.

Usage::

    python tools/check_fig_shapes.py results/campaigns/fig13-locality/report.jsonl
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Figures 7-9: the per-policy throughput metrics of a synthetic cell
AWARE = "locality_aware_per_s"
HASHED = "hash_based_per_s"
WORST = "worst_case_per_s"
#: ``CostModel.bolt_service_s``: the CPU ceiling is n / this
BOLT_SERVICE_S = 9.0e-6

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


def _synthetic_grid(
    cells: Iterable[dict],
    figure: str,
    axes: Sequence[str],
    violations: List[str],
) -> Tuple[Optional[Dict[tuple, dict]], List[list]]:
    """A Figure 7-9 artifact as ``{axis values: metrics}`` plus the
    sorted values of each axis. The grid is None when a point of the
    cross product has no ok cell: the shapes below index it freely."""
    usable = _ok_cells(cells, figure, (AWARE, HASHED, WORST), violations)
    grid = {}
    for cell in usable:
        params = cell.get("params", {})
        grid[tuple(params.get(axis) for axis in axes)] = cell["metrics"]
    values = [sorted({key[i] for key in grid}) for i in range(len(axes))]
    absent = [p for p in itertools.product(*values) if p not in grid]
    if absent:
        violations.append(f"no ok cell at {tuple(axes)} = {absent}")
    return (grid if usable and not absent else None), values


def fig7_shapes(cells: Iterable[dict]) -> List[str]:
    """Parallelism x locality x padding. At full locality and the
    largest tuples only locality-aware scales: from the smallest to the
    largest parallelism it keeps > 0.9 of linear speedup, hash-based
    < 0.55. At full locality padding is irrelevant to locality-aware
    (max/min < 1.02 per parallelism). Even at the smallest padding,
    remote routing costs > 10 % at the largest parallelism (paper:
    ~22 %)."""
    violations: List[str] = []
    grid, (localities, paddings, parallelisms) = _synthetic_grid(
        cells, "fig7", ("locality", "padding", "parallelism"), violations
    )
    if grid is None:
        return violations
    full, big = localities[-1], paddings[-1]
    one, n = parallelisms[0], parallelisms[-1]
    linear = n / one
    speedup = {
        policy: grid[full, big, n][policy] / grid[full, big, one][policy]
        for policy in (AWARE, HASHED)
    }
    if speedup[AWARE] <= 0.9 * linear:
        violations.append(
            f"locality-aware does not scale near-linearly at padding {big}: "
            f"{speedup[AWARE]:.2f}x from parallelism {one} to {n} "
            f"(claim > {0.9 * linear:.2f}x)"
        )
    if speedup[HASHED] >= 0.55 * linear:
        violations.append(
            f"hash-based does not saturate at padding {big}: "
            f"{speedup[HASHED]:.2f}x from parallelism {one} to {n} "
            f"(claim < {0.55 * linear:.2f}x)"
        )
    for parallelism in parallelisms:
        rates = [grid[full, pad, parallelism][AWARE] for pad in paddings]
        if max(rates) / min(rates) >= 1.02:
            violations.append(
                f"parallelism {parallelism}: padding moves locality-aware "
                f"throughput at full locality by "
                f"{max(rates) / min(rates):.3f}x (claim < 1.02x)"
            )
    point = grid[full, paddings[0], n]
    penalty = 1 - point[WORST] / point[AWARE]
    if penalty <= 0.10:
        violations.append(
            f"remote routing costs only {penalty:.1%} at padding "
            f"{paddings[0]}, parallelism {n} (claim > 10 %)"
        )
    return violations


def fig8_shapes(cells: Iterable[dict]) -> List[str]:
    """Locality x parallelism. Per parallelism, locality-aware gains
    > 1.1x from the lowest to the highest locality while hash-based
    varies < 1.25x (from 3 servers up: with two servers and two keys
    any deterministic assignment is quantized). At the largest
    parallelism locality-aware is monotone in locality and full
    locality lands within 2 % of the pure-CPU bound n / bolt_service_s
    — in our cost model the network stops binding only at 100 %, so the
    curve grows smoothly up to the ceiling where the paper's plateau
    would sit (EXPERIMENTS.md)."""
    violations: List[str] = []
    grid, (localities, parallelisms) = _synthetic_grid(
        cells, "fig8", ("locality", "parallelism"), violations
    )
    if grid is None:
        return violations
    for n in parallelisms:
        aware = [grid[locality, n][AWARE] for locality in localities]
        hashed = [grid[locality, n][HASHED] for locality in localities]
        if aware[-1] <= 1.1 * aware[0]:
            violations.append(
                f"parallelism {n}: locality-aware does not grow with "
                f"locality ({aware[-1]:,.0f} <= 1.1 x {aware[0]:,.0f})"
            )
        if n >= 3 and max(hashed) / min(hashed) >= 1.25:
            violations.append(
                f"parallelism {n}: hash-based varies "
                f"{max(hashed) / min(hashed):.2f}x with locality "
                f"(claim < 1.25x)"
            )
    n = parallelisms[-1]
    aware = [grid[locality, n][AWARE] for locality in localities]
    if aware != sorted(aware):
        violations.append(
            f"parallelism {n}: locality-aware is not monotone in "
            f"locality ({[round(rate) for rate in aware]})"
        )
    ceiling = n / BOLT_SERVICE_S
    if abs(aware[-1] - ceiling) > 0.02 * ceiling:
        violations.append(
            f"parallelism {n}: full locality reaches {aware[-1]:,.0f} "
            f"tuples/s, not within 2 % of the CPU ceiling {ceiling:,.0f}"
        )
    return violations


def fig9_shapes(cells: Iterable[dict]) -> List[str]:
    """Padding x parallelism. The locality-aware / hash-based gap grows
    with padding (at the largest parallelism) and with parallelism (at
    the largest padding); in that hardest configuration hash-based is
    < 1.6x worst-case ("very similar" up to model noise)."""
    violations: List[str] = []
    grid, (paddings, parallelisms) = _synthetic_grid(
        cells, "fig9", ("padding", "parallelism"), violations
    )
    if grid is None:
        return violations

    def gap(padding, parallelism):
        point = grid[padding, parallelism]
        return point[AWARE] / point[HASHED]

    big, n = paddings[-1], parallelisms[-1]
    for axis, low in (
        ("padding", gap(paddings[0], n)),
        ("parallelism", gap(big, parallelisms[0])),
    ):
        if gap(big, n) <= low:
            violations.append(
                f"the locality-aware / hash-based gap does not grow with "
                f"{axis} ({gap(big, n):.2f}x at the largest <= "
                f"{low:.2f}x at the smallest)"
            )
    ratio = grid[big, n][HASHED] / grid[big, n][WORST]
    if ratio >= 1.6:
        violations.append(
            f"hash-based is {ratio:.2f}x worst-case at padding {big}, "
            f"parallelism {n} (claim < 1.6x)"
        )
    return violations


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


def fig14_shapes(cells: Iterable[dict]) -> List[str]:
    """One cell per parallelism (the Figure 13 cell at 4 kB, 1 Gb/s).
    Reconfiguration wins at every parallelism; with it, throughput
    grows > 1.2x from the smallest to the largest parallelism, and its
    lead over the never-reconfigured run grows too."""
    violations: List[str] = []
    series = sorted(
        (
            cell.get("params", {}).get("parallelism"),
            cell["metrics"]["after_with_reconf_per_s"],
            cell["metrics"]["after_without_reconf_per_s"],
        )
        for cell in _ok_cells(
            cells,
            "fig14",
            ("after_with_reconf_per_s", "after_without_reconf_per_s"),
            violations,
        )
    )
    for parallelism, with_reconf, without in series:
        if with_reconf <= without:
            violations.append(
                f"parallelism {parallelism}: reconfiguration does not win "
                f"({with_reconf:,.0f} <= {without:,.0f} tuples/s)"
            )
    if len(series) > 1:
        (low, low_with, low_without) = series[0]
        (high, high_with, high_without) = series[-1]
        if high_with <= 1.2 * low_with:
            violations.append(
                f"throughput with reconfiguration does not scale "
                f"({high_with:,.0f} at parallelism {high} <= 1.2 x "
                f"{low_with:,.0f} at {low})"
            )
        if high_with - high_without <= low_with - low_without:
            violations.append(
                f"the lead of reconfiguration does not grow with "
                f"parallelism ({high_with - high_without:,.0f} at {high} "
                f"<= {low_with - low_without:,.0f} at {low})"
            )
    return violations


#: campaign -> its shape check
CHECKS = {
    "fig07-parallelism": fig7_shapes,
    "fig08-locality": fig8_shapes,
    "fig09-padding": fig9_shapes,
    "fig11-weekly": fig11_shapes,
    "fig12-edges": fig12_shapes,
    "fig13-locality": fig13_shapes,
    "fig14-parallelism": fig14_shapes,
}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        header, cells = load_report(argv[1])
    except (OSError, ValueError) as exc:
        print(f"cannot read artifact: {exc}", file=sys.stderr)
        return 2
    campaign = header.get("campaign")
    if campaign not in CHECKS:
        print(
            f"no shape claims for campaign {campaign!r}; one of "
            f"{sorted(CHECKS)}",
            file=sys.stderr,
        )
        return 2
    violations = CHECKS[campaign](cells)
    if violations:
        print(f"{campaign} shape check: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"{campaign} shape check: all claims hold across the artifact")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
