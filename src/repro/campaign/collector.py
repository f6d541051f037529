"""Campaign JSONL reports: one header line, then one line per cell.

The JSONL is the machine-readable artifact of a campaign run (the
markdown report is rendered from it). Line 1 is the campaign header —
schema, campaign name, config source, cell/seed counts, status tally —
and every following line is one executed cell
(:meth:`~repro.campaign.executor.CellResult.to_dict`). It is run
output, not committed: ``campaign run --cell <id>`` compares its
fingerprint against the file when a campaign run left one in the
output directory, and against the committed baseline otherwise.
"""

from __future__ import annotations

import datetime
import json
import os
from collections import Counter
from typing import Dict, List, Tuple

from repro.campaign.config import CampaignConfig
from repro.campaign.executor import CellResult

REPORT_SCHEMA = "repro.campaign/report-v1"


def report_header(
    config: CampaignConfig, results: List[CellResult]
) -> dict:
    statuses = Counter(result.status for result in results)
    return {
        "schema": REPORT_SCHEMA,
        "campaign": config.name,
        "description": config.description,
        "runner": config.runner,
        "config": config.source,
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cells": len(results),
        "seeds": list(config.seeds),
        "statuses": dict(sorted(statuses.items())),
    }


def write_jsonl(
    path: str, config: CampaignConfig, results: List[CellResult]
) -> dict:
    """Write the campaign JSONL; returns the header written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    header = report_header(config, results)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for result in results:
            handle.write(
                json.dumps(result.to_dict(), sort_keys=True) + "\n"
            )
    return header


def load_jsonl(path: str) -> Tuple[dict, List[CellResult]]:
    """Load a campaign JSONL back into (header, cell results)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty campaign report")
    header = json.loads(lines[0])
    schema = header.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported report schema {schema!r} "
            f"(expected {REPORT_SCHEMA!r})"
        )
    results = [CellResult.from_dict(json.loads(line)) for line in lines[1:]]
    return header, results


def metrics_by_cell(
    results: List[CellResult],
) -> Dict[str, Dict[str, float]]:
    """cell id → metrics, for baseline recording and diffing. Cells
    that produced no metrics (timeout/crash) are omitted — their
    absence is what the baseline diff reports."""
    return {
        result.id: dict(result.metrics)
        for result in results
        if result.metrics
    }
