"""The campaign CLI: ``python -m repro.campaign <command>``.

Commands::

    run <campaign.yaml>            # run the full matrix, write reports,
                                   # diff against the committed baseline
    run <campaign.yaml> --cell ID  # re-run one cell; verified against
                                   # the recorded report, else against
                                   # the committed baseline
    list <campaign.yaml>           # print the planned cells and exit

``run`` writes ``report.jsonl`` + ``report.md`` under the output
directory (default ``results/campaigns/<name>``) and exits 0 only when
every cell is ok **and**, against the committed baseline, no directed
metric regressed beyond tolerance and no cell's fingerprint differs
(``--no-gate`` reports without failing; ``--record-baseline``
re-records the baseline from this run). ``run --cell`` exits 2 when
the cell's fingerprint diverges from the one recorded for it — in
``<out>/report.jsonl`` when a campaign run left one there, else in the
committed baseline, which is what a fresh checkout has — that is the
reproducibility check CI runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.campaign.baseline import (
    diff_campaign,
    load_baseline,
    write_baseline,
)
from repro.campaign.collector import (
    load_jsonl,
    metrics_by_cell,
    report_header,
    write_jsonl,
)
from repro.campaign.config import CampaignError, load_campaign
from repro.campaign.executor import run_cells
from repro.campaign.planner import find_cell, plan
from repro.campaign.report import gate_failures, render_markdown


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=(
            "Declarative scenario campaigns: matrix sweeps with "
            "per-cell isolation and regression-tracked reports."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a campaign (or one cell)")
    run.add_argument("campaign", help="campaign file (YAML or JSON)")
    run.add_argument(
        "--cell",
        metavar="ID",
        default=None,
        help="run only this cell id; its fingerprint is verified against "
        "report.jsonl when that exists, else against the baseline",
    )
    run.add_argument(
        "--out",
        default=None,
        help="output directory (default results/campaigns/<name>)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: campaign file / cpus)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell timeout in seconds (default: campaign file)",
    )
    run.add_argument(
        "--no-gate",
        action="store_true",
        help="report failures and regressions without a non-zero exit",
    )
    run.add_argument(
        "--record-baseline",
        action="store_true",
        help="write this run's metrics as the committed baseline",
    )

    lister = commands.add_parser("list", help="print the planned cells")
    lister.add_argument("campaign", help="campaign file (YAML or JSON)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_campaign(args.campaign)
        cells = plan(config)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2

    if args.command == "list":
        print(
            f"{config.name}: {len(cells)} cells "
            f"({config.cells_per_seed} matrix points x "
            f"{len(config.seeds)} seed(s)), runner={config.runner}"
        )
        for cell in cells:
            print(f"  {cell.id}")
        return 0

    out_dir = args.out or os.path.join("results", "campaigns", config.name)
    timeout_s = args.timeout if args.timeout is not None else config.timeout_s
    workers = args.workers if args.workers is not None else config.workers

    if args.cell is not None:
        return _run_single(args, config, cells, out_dir, timeout_s)
    return _run_campaign(args, config, cells, out_dir, timeout_s, workers)


def _run_campaign(args, config, cells, out_dir, timeout_s, workers) -> int:
    print(
        f"campaign {config.name}: {len(cells)} cells, "
        f"timeout {timeout_s:g}s/cell"
    )

    def progress(result, done, total):
        marker = "ok" if result.ok else result.status.upper()
        print(f"  [{done}/{total}] {result.id}: {marker}")

    results = run_cells(
        cells, out_dir, timeout_s=timeout_s, workers=workers,
        on_done=progress,
    )

    jsonl_path = os.path.join(out_dir, "report.jsonl")
    header = write_jsonl(jsonl_path, config, results)

    diff = None
    baseline_path = config.baseline_path()
    cell_metrics = metrics_by_cell(results)
    fingerprints = {r.id: r.fingerprint for r in results if r.fingerprint}
    if args.record_baseline and baseline_path:
        write_baseline(
            baseline_path, config.name, cell_metrics, fingerprints
        )
        print(f"baseline recorded: {baseline_path}")
    if baseline_path and os.path.exists(baseline_path):
        diff = diff_campaign(
            load_baseline(baseline_path),
            cell_metrics,
            tolerance=config.tolerance,
            extra_axes=config.axes,
            cell_fingerprints=fingerprints,
        )

    markdown = render_markdown(
        header,
        results,
        diff=diff,
        tolerance=config.tolerance,
        baseline_path=baseline_path,
    )
    md_path = os.path.join(out_dir, "report.md")
    with open(md_path, "w", encoding="utf-8") as handle:
        handle.write(markdown)
    print(f"report: {md_path} (+ {jsonl_path})")

    problems = gate_failures(results, diff)
    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    if problems and not args.no_gate:
        return 1
    return 0


def _run_single(args, config, cells, out_dir, timeout_s) -> int:
    try:
        cell = find_cell(cells, args.cell)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2

    rerun_dir = os.path.join(out_dir, "rerun")
    (result,) = run_cells(
        [cell], rerun_dir, timeout_s=timeout_s, workers=1
    )
    print(
        f"cell {result.id}: {result.status} "
        f"fingerprint={result.fingerprint or '—'} "
        f"metrics={ {k: round(v, 4) for k, v in sorted(result.metrics.items())} }"
    )
    if not result.ok:
        if result.error:
            print(result.error, file=sys.stderr)
        return 1

    expected = _recorded_fingerprints(config, out_dir).get(result.id)
    if expected is None:
        print(
            f"(no fingerprint on record for cell {result.id}, in "
            f"{out_dir}/report.jsonl or in the baseline; nothing to "
            f"verify against)"
        )
        return 0
    if expected != result.fingerprint:
        print(
            f"REPRODUCTION FAILED: recorded fingerprint {expected} "
            f"!= re-run {result.fingerprint}",
            file=sys.stderr,
        )
        return 2
    print(f"reproduced: fingerprint {expected} matches the one on record")
    return 0


def _recorded_fingerprints(config, out_dir) -> dict:
    """cell id → fingerprint on record: the committed baseline's, under
    those of the report a campaign run left in ``out_dir``, if any."""
    recorded = {}
    baseline_path = config.baseline_path()
    if baseline_path and os.path.exists(baseline_path):
        recorded.update(load_baseline(baseline_path).get("fingerprints", {}))
    jsonl_path = os.path.join(out_dir, "report.jsonl")
    if os.path.exists(jsonl_path):
        _, cells = load_jsonl(jsonl_path)
        recorded.update({c.id: c.fingerprint for c in cells if c.fingerprint})
    return recorded


if __name__ == "__main__":
    sys.exit(main())
