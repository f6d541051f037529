"""Campaign files: schema, loading, validation.

A campaign file is YAML (or JSON — anything ``json.loads`` accepts is
also valid YAML) with this shape::

    campaign: matrix-quick          # slug; names the report directory
    description: one-line intent    # optional, shown in the report
    runner: episode                 # see RUNNER_NAMES below
    matrix:                         # axes crossed into cells
      hybrid: [false, true]
      rescale: [false, true]
      delta_propagation: [true, false]
      compact_tables: [false, true]
      faults: [false, true]
    defaults:                       # fixed per-cell parameters
      parallelism: 3
    seeds: [7]                      # each cell runs once per seed
    timeout_s: 120                  # per-cell wall-clock budget
    workers: 0                      # parallel workers; 0 = cpu count
    baseline: baselines/matrix-quick.json   # relative to this file
    tolerance: 0.20                 # regression gate threshold
    axes:                           # directions for unsuffixed metrics
      locality: higher
      load_balance: lower
      measured_ipc_bytes: exact     # counted: any difference fails

Validation is strict: unknown top-level keys, empty axes, non-scalar
axis values, or an unregistered runner all raise
:class:`CampaignError` naming the offending key, so a typo'd campaign
fails at load time instead of silently sweeping the wrong grid.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: runner names accepted by ``runner:`` (see repro.campaign.runners)
RUNNER_NAMES = (
    "episode",
    "synthetic",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "skew",
    "scale",
    "ablation",
    "backend",
)

#: every key a campaign file may set at the top level
KNOWN_KEYS = {
    "campaign",
    "description",
    "runner",
    "matrix",
    "defaults",
    "seeds",
    "timeout_s",
    "workers",
    "baseline",
    "tolerance",
    "axes",
}

_SLUG = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_AXIS_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class CampaignError(Exception):
    """A campaign file failed to load or validate."""


@dataclass
class CampaignConfig:
    """A validated campaign definition."""

    name: str
    runner: str
    matrix: Dict[str, List[Any]]
    defaults: Dict[str, Any] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=lambda: [0])
    description: str = ""
    timeout_s: float = 120.0
    workers: int = 0
    #: committed baseline path, resolved relative to the campaign file
    baseline: Optional[str] = None
    tolerance: float = 0.20
    #: extra metric directions: name -> "higher" | "lower" | "exact"
    axes: Dict[str, str] = field(default_factory=dict)
    #: absolute path of the campaign file this config came from
    source: str = ""

    @property
    def cells_per_seed(self) -> int:
        count = 1
        for values in self.matrix.values():
            count *= len(values)
        return count

    def baseline_path(self) -> Optional[str]:
        """Absolute path of the committed baseline, or None."""
        if not self.baseline:
            return None
        if os.path.isabs(self.baseline):
            return self.baseline
        return os.path.normpath(
            os.path.join(os.path.dirname(self.source), self.baseline)
        )


def _parse(text: str, path: str) -> Dict:
    """Parse campaign text: JSON first (a strict subset and always
    available), then YAML when PyYAML is installed."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - env without pyyaml
        raise CampaignError(
            f"{path}: not valid JSON and PyYAML is not installed; "
            f"install pyyaml or rewrite the campaign as JSON"
        ) from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise CampaignError(f"{path}: invalid YAML: {exc}") from exc
    return data


def _scalar(value: Any) -> bool:
    return isinstance(value, (bool, int, float, str))


def validate(data: Any, path: str = "<campaign>") -> CampaignConfig:
    """Validate raw campaign data into a :class:`CampaignConfig`."""
    if not isinstance(data, dict):
        raise CampaignError(
            f"{path}: campaign must be a mapping, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - KNOWN_KEYS)
    if unknown:
        raise CampaignError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {sorted(KNOWN_KEYS)}"
        )
    for key in ("campaign", "runner", "matrix"):
        if key not in data:
            raise CampaignError(f"{path}: missing required key {key!r}")

    name = data["campaign"]
    if not isinstance(name, str) or not _SLUG.match(name):
        raise CampaignError(
            f"{path}: 'campaign' must be a slug "
            f"(letters, digits, . _ -), got {name!r}"
        )
    runner = data["runner"]
    if runner not in RUNNER_NAMES:
        raise CampaignError(
            f"{path}: unknown runner {runner!r}; one of {RUNNER_NAMES}"
        )

    matrix = data["matrix"]
    if not isinstance(matrix, dict) or not matrix:
        raise CampaignError(f"{path}: 'matrix' must be a non-empty mapping")
    for axis, values in matrix.items():
        if not isinstance(axis, str) or not _AXIS_NAME.match(axis):
            raise CampaignError(
                f"{path}: matrix axis {axis!r} is not an identifier"
            )
        if not isinstance(values, list) or not values:
            raise CampaignError(
                f"{path}: matrix axis {axis!r} must list at least one value"
            )
        for value in values:
            if not _scalar(value):
                raise CampaignError(
                    f"{path}: matrix axis {axis!r} has non-scalar "
                    f"value {value!r}"
                )
        if len(set(map(repr, values))) != len(values):
            raise CampaignError(
                f"{path}: matrix axis {axis!r} repeats a value"
            )

    defaults = data.get("defaults", {}) or {}
    if not isinstance(defaults, dict):
        raise CampaignError(f"{path}: 'defaults' must be a mapping")
    overlap = sorted(set(defaults) & set(matrix))
    if overlap:
        raise CampaignError(
            f"{path}: key(s) {', '.join(map(repr, overlap))} appear in "
            f"both 'defaults' and 'matrix'"
        )

    seeds = data.get("seeds", [0])
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
    ):
        raise CampaignError(
            f"{path}: 'seeds' must be a non-empty list of ints"
        )
    if len(set(seeds)) != len(seeds):
        raise CampaignError(f"{path}: 'seeds' repeats a seed")

    timeout_s = data.get("timeout_s", 120.0)
    if not isinstance(timeout_s, (int, float)) or timeout_s <= 0:
        raise CampaignError(f"{path}: 'timeout_s' must be > 0")
    workers = data.get("workers", 0)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 0:
        raise CampaignError(f"{path}: 'workers' must be an int >= 0")
    tolerance = data.get("tolerance", 0.20)
    if not isinstance(tolerance, (int, float)) or tolerance < 0:
        raise CampaignError(f"{path}: 'tolerance' must be >= 0")

    baseline = data.get("baseline")
    if baseline is not None and not isinstance(baseline, str):
        raise CampaignError(f"{path}: 'baseline' must be a path string")

    axes = data.get("axes", {}) or {}
    if not isinstance(axes, dict):
        raise CampaignError(f"{path}: 'axes' must be a mapping")
    for metric, direction in axes.items():
        if direction not in ("higher", "lower", "exact"):
            raise CampaignError(
                f"{path}: axes[{metric!r}] must be 'higher' or 'lower' "
                f"(gated at the tolerance) or 'exact', got {direction!r}"
            )

    description = data.get("description", "") or ""
    if not isinstance(description, str):
        raise CampaignError(f"{path}: 'description' must be a string")

    return CampaignConfig(
        name=name,
        runner=runner,
        matrix={axis: list(values) for axis, values in matrix.items()},
        defaults=dict(defaults),
        seeds=list(seeds),
        description=description,
        timeout_s=float(timeout_s),
        workers=workers,
        baseline=baseline,
        tolerance=float(tolerance),
        axes=dict(axes),
        source=path,
    )


def load_campaign(path: str) -> CampaignConfig:
    """Load and validate one campaign file."""
    if not os.path.isfile(path):
        raise CampaignError(f"{path}: no such campaign file")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    data = _parse(text, path)
    return validate(data, path=os.path.abspath(path))
