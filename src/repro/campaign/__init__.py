"""Scenario campaigns: declarative matrix sweeps with tracked results.

A *campaign* is a declarative experiment matrix — workload knobs ×
grouping policy × fault plan × rescale schedule × delta/compact wire
flags × seeds — described by one YAML (or JSON) file under
``campaigns/``.  ``python -m repro.campaign run campaigns/<name>.yaml``
expands the matrix into *cells*, executes every cell in a parallel pool
of worker subprocesses (per-cell timeout, crash capture, seeded
``PYTHONHASHSEED``), attaches the ``repro.testing`` invariant suite to
episode cells, and aggregates everything into a per-campaign JSONL +
markdown report that diffs against a committed baseline
(``*_per_s`` higher-is-better, ``*_bytes_per_key`` lower-is-better,
>20% moves gated; event fingerprints compared exactly).

Module map:

- :mod:`repro.campaign.config` — the campaign schema: loading and
  validation of campaign files (:class:`CampaignConfig`);
- :mod:`repro.campaign.planner` — matrix → ordered list of
  :class:`CellSpec` with stable, human-readable cell ids;
- :mod:`repro.campaign.runners` — what one cell *does*: the
  ``episode`` runner (fuzz-grade invariants + simulator fingerprint),
  the experiment runners (``synthetic``, ``fig10``-``fig13``,
  ``skew``, ``scale``, ``ablation``) that compute one cell of an
  experiment's grid and assert the claims about it, and the
  ``backend`` equivalence runner;
- :mod:`repro.campaign.worker` — the subprocess entry point
  (``python -m repro.campaign.worker``) that runs exactly one cell;
- :mod:`repro.campaign.executor` — the parallel pool: spawns one
  worker per cell with the cell's seeds exported, enforces timeouts,
  and turns crashes into failed *cells* instead of failed campaigns;
- :mod:`repro.campaign.collector` — JSONL report writing/loading;
- :mod:`repro.campaign.baseline` — metric axis semantics + committed
  baseline diffing;
- :mod:`repro.campaign.report` — the markdown report.

Quick start::

    PYTHONPATH=src python -m repro.campaign run campaigns/matrix-quick.yaml
    PYTHONPATH=src python -m repro.campaign list campaigns/matrix-quick.yaml
    # re-run one cell and verify it reproduces the recorded fingerprint
    PYTHONPATH=src python -m repro.campaign run campaigns/matrix-quick.yaml \\
        --cell "compact_tables=on,delta_propagation=on,faults=on,hybrid=on,rescale=on,seed=7"
"""

from repro.campaign.baseline import (
    axis_of,
    compare_metrics,
    diff_campaign,
    load_baseline,
    write_baseline,
)
from repro.campaign.config import CampaignConfig, CampaignError, load_campaign
from repro.campaign.executor import CellResult, run_cells
from repro.campaign.planner import CellSpec, cell_id, plan
from repro.campaign.runners import CellOutcome, run_cell

__all__ = [
    "CampaignConfig",
    "CampaignError",
    "CellOutcome",
    "CellResult",
    "CellSpec",
    "axis_of",
    "cell_id",
    "compare_metrics",
    "diff_campaign",
    "load_baseline",
    "load_campaign",
    "plan",
    "run_cell",
    "run_cells",
    "write_baseline",
]
