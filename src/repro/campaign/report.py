"""The human half of a campaign run: the markdown report.

Rendered from the same data as the JSONL (header + cell results +
baseline diff), written as ``report.md`` next to it. Sections: run
summary, failed cells (violations / timeouts / crashes, with bundle
and log pointers), the full per-cell metric table, and the baseline
comparison (regressions, fingerprint drift, missing cells, new cells).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.campaign.executor import CellResult

#: cell-table columns always shown before the metric columns
_FIXED_COLUMNS = ("cell", "status", "fingerprint")


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:,.4g}"


def _metric_columns(results: List[CellResult]) -> List[str]:
    seen = {}
    for result in results:
        for key in result.metrics:
            seen.setdefault(key, None)
    return sorted(seen)


def render_markdown(
    header: dict,
    results: List[CellResult],
    diff: Optional[dict] = None,
    tolerance: float = 0.20,
    baseline_path: Optional[str] = None,
) -> str:
    lines: List[str] = []
    name = header.get("campaign", "campaign")
    lines.append(f"# Campaign report: {name}")
    lines.append("")
    if header.get("description"):
        lines.append(header["description"])
        lines.append("")
    statuses: Dict[str, int] = header.get("statuses", {})
    ok = statuses.get("ok", 0)
    lines.append(
        f"- **Run:** {header.get('generated_utc', '?')} · runner "
        f"`{header.get('runner', '?')}` · {header.get('cells', 0)} cells "
        f"· seeds {header.get('seeds', [])}"
    )
    tally = ", ".join(
        f"{count} {status}" for status, count in sorted(statuses.items())
    )
    verdict = "clean" if ok == header.get("cells") else "FAILURES"
    lines.append(f"- **Cells:** {tally or 'none'} — {verdict}")

    failed = [r for r in results if not r.ok]
    if failed:
        lines.append("")
        lines.append("## Failed cells")
        lines.append("")
        for result in failed:
            lines.append(f"- `{result.id}` — **{result.status}**")
            if result.violations:
                for violation in result.violations[:5]:
                    lines.append(
                        f"  - [{violation.get('invariant')}] "
                        f"{violation.get('detail')}"
                    )
            if result.bundle_path:
                lines.append(
                    f"  - repro bundle: `{result.bundle_path}` "
                    f"(replay: `python -m repro.testing.fuzz --replay "
                    f"{result.bundle_path}`)"
                )
            if result.error:
                first = result.error.splitlines()[0]
                lines.append(f"  - {first}")
            if result.log_path:
                lines.append(f"  - log: `{result.log_path}`")

    lines.append("")
    lines.append("## Cells")
    lines.append("")
    metric_columns = _metric_columns(results)
    head = list(_FIXED_COLUMNS) + metric_columns
    lines.append("| " + " | ".join(head) + " |")
    lines.append("|" + "|".join("---" for _ in head) + "|")
    for result in results:
        row = [
            f"`{result.id}`",
            result.status,
            f"`{result.fingerprint}`" if result.fingerprint else "—",
        ]
        for key in metric_columns:
            value = result.metrics.get(key)
            row.append("—" if value is None else _fmt_value(value))
        lines.append("| " + " | ".join(row) + " |")

    lines.append("")
    lines.append("## Baseline comparison")
    lines.append("")
    if diff is None:
        lines.append(
            "No committed baseline — record one with "
            "`python -m repro.campaign run <campaign> --record-baseline`."
        )
    else:
        lines.append(
            f"Baseline `{baseline_path}` · tolerance "
            f"±{tolerance:.0%} on directed metrics "
            f"(`*_per_s` higher-is-better, `*_bytes_per_key` "
            f"lower-is-better, plus the campaign's `axes:` map)."
        )
        lines.append("")
        regressions: Dict[str, List[str]] = diff.get("regressions", {})
        if regressions:
            lines.append("### Regressions")
            lines.append("")
            for cell, messages in sorted(regressions.items()):
                lines.append(f"- `{cell}`")
                for message in messages:
                    lines.append(f"  - {message}")
        else:
            lines.append("No regressions beyond tolerance.")
        if diff.get("fingerprint_drift"):
            lines.append("")
            lines.append("### Fingerprint drift (gate fails)")
            lines.append("")
            for cell, (recorded, now) in sorted(
                diff["fingerprint_drift"].items()
            ):
                lines.append(
                    f"- `{cell}`: baseline `{recorded}`, run `{now}`"
                )
        if diff.get("missing_cells"):
            lines.append("")
            lines.append(
                "### Baseline cells missing from this run (gate fails)"
            )
            lines.append("")
            for cell in diff["missing_cells"]:
                lines.append(f"- `{cell}`")
        if diff.get("new_cells"):
            lines.append("")
            lines.append("### New cells (not in baseline, informational)")
            lines.append("")
            for cell in diff["new_cells"]:
                lines.append(f"- `{cell}`")
    lines.append("")
    return "\n".join(lines)


def gate_failures(
    results: List[CellResult], diff: Optional[dict]
) -> List[str]:
    """Everything that should fail the campaign gate: one message per
    failed cell, regressed cell, cell whose fingerprint left the
    baseline's, or baseline cell missing from the run."""
    messages = [
        f"cell {result.id}: {result.status}"
        for result in results
        if not result.ok
    ]
    if diff:
        for cell, problems in sorted(diff.get("regressions", {}).items()):
            for problem in problems:
                messages.append(f"regression in {cell}: {problem}")
        for cell, (recorded, now) in sorted(
            diff.get("fingerprint_drift", {}).items()
        ):
            messages.append(
                f"fingerprint of {cell}: baseline {recorded}, run {now}"
            )
        for cell in diff.get("missing_cells", []):
            messages.append(f"baseline cell missing from run: {cell}")
    return messages
