"""Metric axis semantics and committed-baseline diffing.

This is the one home of the repo's metric-direction convention:

- ``*_per_s``   — higher is better (throughput rates);
- ``*_bytes_per_key`` — lower is better (memory-model numbers);
- anything else — informational, unless the campaign's ``axes:``
  mapping assigns it an explicit ``higher`` / ``lower`` direction
  (e.g. ``locality: higher``, ``load_balance: lower``) or ``exact``
  (a counted number that repeats per seed, e.g. measured IPC bytes).

A *regression* is a gated metric moving in its bad direction by more
than the tolerance (default 20%), an ``exact`` metric differing from
its baseline at all, or a baseline metric missing from the current
run. Movement of exactly the tolerance is **not** a regression (the
gate is strict-beyond). Metrics that exist only in
the current run are new axes: informational, never gated — a PR that
adds measurements must not fail its own gate.

Campaign baselines are committed JSON documents mapping cell id →
metrics and, for episode campaigns, cell id → event fingerprint (see
:func:`write_baseline`); :func:`diff_campaign` compares a fresh run
against one, cell by cell. Fingerprints are compared exactly: the same
cell id must replay the identical event sequence, so a differing
fingerprint fails the gate like a regression does.
"""

from __future__ import annotations

import datetime
import json
import os
from typing import Dict, List, Optional

BASELINE_SCHEMA = "repro.campaign/baseline-v1"

HIGHER_SUFFIXES = ("_per_s",)
LOWER_SUFFIXES = ("_bytes_per_key",)


def axis_of(
    key: str, extra_axes: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """The direction of one metric: "higher", "lower", "exact", or
    None (informational). Explicit ``extra_axes`` win over suffixes."""
    if extra_axes and key in extra_axes:
        return extra_axes[key]
    if key.endswith(HIGHER_SUFFIXES):
        return "higher"
    if key.endswith(LOWER_SUFFIXES):
        return "lower"
    return None


def compare_metrics(
    baseline_metrics: Dict[str, float],
    metrics: Dict[str, float],
    tolerance: float = 0.20,
    extra_axes: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Regression messages for every directed metric that moved the
    wrong way by more than ``tolerance`` (an ``exact`` one: at all).
    Empty list = no regression.

    Baseline metrics with no direction are ignored; directed baseline
    metrics missing from ``metrics`` are reported; metrics only in
    ``metrics`` (new axes) are never reported.
    """
    regressions = []
    for key, base in sorted(baseline_metrics.items()):
        axis = axis_of(key, extra_axes)
        if axis is None:
            continue
        now = metrics.get(key)
        if now is None:
            regressions.append(f"{key}: missing from current run")
            continue
        if axis == "exact":
            if now != base:
                regressions.append(
                    f"{key}: {now!r} differs from baseline {base!r} "
                    f"(exact axis)"
                )
            continue
        if base <= 0:
            continue
        if axis == "higher" and now < base * (1.0 - tolerance):
            regressions.append(
                f"{key}: {now:,.4g} is {now / base:.2f}x of "
                f"baseline {base:,.4g} "
                f"(allowed >= {1.0 - tolerance:.2f}x)"
            )
        elif axis == "lower" and now > base * (1.0 + tolerance):
            regressions.append(
                f"{key}: {now:,.4g} is {now / base:.2f}x of "
                f"baseline {base:,.4g} "
                f"(allowed <= {1.0 + tolerance:.2f}x)"
            )
    return regressions


# ----------------------------------------------------------------------
# Campaign baseline documents
# ----------------------------------------------------------------------


def load_baseline(path: str) -> dict:
    """Load a committed campaign baseline document."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    schema = doc.get("schema")
    if schema != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: unsupported baseline schema {schema!r} "
            f"(expected {BASELINE_SCHEMA!r})"
        )
    return doc


def write_baseline(
    path: str,
    campaign: str,
    cells: Dict[str, Dict[str, float]],
    fingerprints: Optional[Dict[str, str]] = None,
    label: str = "",
) -> dict:
    """Write a campaign baseline: cell id → metrics (and, for episode
    campaigns, cell id → fingerprint)."""
    doc = {
        "schema": BASELINE_SCHEMA,
        "campaign": campaign,
        "label": label or campaign,
        "recorded_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cells": {
            cell: {k: metrics[k] for k in sorted(metrics)}
            for cell, metrics in sorted(cells.items())
        },
    }
    if fingerprints:
        doc["fingerprints"] = dict(sorted(fingerprints.items()))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return doc


def diff_campaign(
    baseline_doc: dict,
    cell_metrics: Dict[str, Dict[str, float]],
    tolerance: float = 0.20,
    extra_axes: Optional[Dict[str, str]] = None,
    cell_fingerprints: Optional[Dict[str, str]] = None,
) -> dict:
    """Compare a fresh run against a committed baseline.

    Returns ``{"regressions": {cell_id: [msg, ...]}, "missing_cells":
    [...], "new_cells": [...], "fingerprint_drift": {cell_id:
    [baseline, run]}}``. A baseline cell absent from the run fails the
    gate (the sweep shrank); a run cell absent from the baseline is
    informational (the sweep grew); a cell of ``cell_fingerprints``
    whose fingerprint differs from the baseline's fails the gate.
    """
    base_cells: Dict[str, Dict[str, float]] = baseline_doc.get("cells", {})
    regressions: Dict[str, List[str]] = {}
    for cell, base in sorted(base_cells.items()):
        if cell not in cell_metrics:
            continue
        messages = compare_metrics(
            base, cell_metrics[cell], tolerance, extra_axes
        )
        if messages:
            regressions[cell] = messages
    run_fingerprints = cell_fingerprints or {}
    drift = {
        cell: [recorded, run_fingerprints[cell]]
        for cell, recorded in sorted(
            baseline_doc.get("fingerprints", {}).items()
        )
        if cell in run_fingerprints and run_fingerprints[cell] != recorded
    }
    return {
        "regressions": regressions,
        "missing_cells": sorted(set(base_cells) - set(cell_metrics)),
        "new_cells": sorted(set(cell_metrics) - set(base_cells)),
        "fingerprint_drift": drift,
    }
