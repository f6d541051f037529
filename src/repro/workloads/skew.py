"""A Zipf-skewed workload with a flash hot key — the regime the
paper punts on.

Spout instance ``i`` emits tail key ``rank * P + i`` for a Zipf-drawn
``rank``, so every tail key has a perfect home instance (100% locality
under an ideal routing table). On top of that, *every* instance emits
the shared flash key ``HOT_KEY`` with probability ``flash_share`` —
the SpaceSaving-detectable heavy hitter a single POI cannot absorb.

Three routing policies expose the tension the hybrid router resolves:

- ``table``  — pure locality-aware tables: the tail is 100% local but
  the hot key pins one instance (bad load balance);
- ``hash``   — plain hash fields grouping: balanced-ish load but only
  ~1/P of the tail stays local;
- ``hybrid`` — tables for the tail, the hot key split over
  ``split_width`` least-loaded members: local tail *and* spread hot
  key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.core.routing_table import RoutingTable
from repro.engine import (
    FieldsGrouping,
    HybridTableFieldsGrouping,
    TableFieldsGrouping,
    Topology,
    count_chain,
)
from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler, derived_rng

#: the flash-crowd key every spout instance emits
HOT_KEY = "HOT"

#: routing policies compared by the skew experiment
SKEW_POLICIES = ("table", "hash", "hybrid")


@dataclass(frozen=True)
class SkewConfig:
    """Parameters of the skewed workload."""

    parallelism: int = 4
    #: Zipf ranks per spout instance (tail key population = ranks × P)
    ranks: int = 64
    #: Zipf exponent of the tail distribution
    exponent: float = 1.5
    #: probability each emission is the shared flash hot key
    flash_share: float = 0.3
    #: instances the hybrid policy splits the hot key over
    split_width: int = 2
    seed: int = 0
    #: cap on emitted tuples per spout instance; None = unbounded
    tuples_per_instance: int = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise WorkloadError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.ranks < 1:
            raise WorkloadError(f"ranks must be >= 1, got {self.ranks}")
        if not 0.0 <= self.flash_share <= 1.0:
            raise WorkloadError(
                f"flash_share must be in [0, 1], got {self.flash_share}"
            )
        if self.split_width < 2:
            raise WorkloadError(
                f"split_width must be >= 2, got {self.split_width}"
            )


class SkewWorkload:
    """Builds skew-experiment topologies: ``S -> A (count on f0)``."""

    def __init__(self, config: SkewConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Data generation
    # ------------------------------------------------------------------

    def tuples_for_instance(self, instance: int) -> Iterator[Tuple]:
        config = self.config
        rng = derived_rng(config.seed, "skew", instance)
        sampler = ZipfSampler(config.ranks, config.exponent, rng)
        emitted = 0
        while (
            config.tuples_per_instance is None
            or emitted < config.tuples_per_instance
        ):
            if rng.random() < config.flash_share:
                yield (HOT_KEY,)
            else:
                rank = sampler.sample()
                yield (rank * config.parallelism + instance,)
            emitted += 1

    # ------------------------------------------------------------------
    # Routing tables
    # ------------------------------------------------------------------

    def home_table(self) -> Dict:
        """The ideal key → instance mapping: each tail key to its home
        instance (``key % P``), the hot key to instance 0."""
        P = self.config.parallelism
        mapping = {
            rank * P + i: i
            for rank in range(self.config.ranks)
            for i in range(P)
        }
        mapping[HOT_KEY] = 0
        return mapping

    def split_set(self) -> Dict:
        """The hybrid policy's split set: the hot key over the first
        ``split_width`` instances (its table owner included)."""
        width = min(self.config.split_width, self.config.parallelism)
        return {HOT_KEY: tuple(range(width))}

    # ------------------------------------------------------------------
    # Topologies
    # ------------------------------------------------------------------

    def topology(self, policy: str) -> Topology:
        """``S -> A`` under one routing policy; A counts field 0."""
        if policy not in SKEW_POLICIES:
            raise WorkloadError(
                f"unknown policy {policy!r}; expected one of {SKEW_POLICIES}"
            )
        if policy == "hash":
            grouping = FieldsGrouping(0)
        elif policy == "table":
            grouping = TableFieldsGrouping(
                0, table=RoutingTable(self.home_table())
            )
        else:
            grouping = HybridTableFieldsGrouping(
                0,
                table=RoutingTable(self.home_table(), self.split_set()),
            )
        return count_chain(
            lambda ctx: self.tuples_for_instance(ctx.instance_index),
            self.config.parallelism,
            [grouping],
        )

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    def expected_counts(self) -> Dict:
        """Exact per-key counts A should hold (summed over instances)
        at quiescence — the conservation oracle."""
        counts: Dict = {}
        for instance in range(self.config.parallelism):
            for (key,) in self.tuples_for_instance(instance):
                counts[key] = counts.get(key, 0) + 1
        return counts
