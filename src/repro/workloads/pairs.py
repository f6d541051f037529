"""A parameterized correlated pair-stream workload for the fuzz harness.

Where :mod:`~repro.workloads.synthetic` reproduces the paper's Section
4.2 experiment (key space == parallelism), this generator exists to
*stress* the control plane: a larger Zipfian key population, a tunable
correlation between the two fields, and integer keys throughout so
episodes hash identically across processes (replayability).

Tuples are ``(i, j)`` with ``i`` Zipf-distributed over ``0..keys-1``
and ``j`` either a fixed partner of ``i`` (probability ``correlation``
— giving the key graph real structure for the partitioner to find) or
an independent Zipf draw. The topology mirrors the evaluation app:
``S -> A (table on f0) -> B (table on f1)``, both POIs counting their
field, with swappable tables for manager-driven runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.engine import (
    HybridTableFieldsGrouping,
    TableFieldsGrouping,
    Topology,
    count_chain,
)
from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler, derived_rng


@dataclass(frozen=True)
class PairsConfig:
    """Parameters of the fuzz pair stream."""

    parallelism: int = 2
    #: key population per field
    keys: int = 32
    #: Zipf skew of both fields
    exponent: float = 1.0
    #: probability that ``j`` is ``i``'s fixed partner key
    correlation: float = 0.7
    seed: int = 0
    tuples_per_instance: int = 1000

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise WorkloadError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.keys < 1:
            raise WorkloadError(f"keys must be >= 1, got {self.keys}")
        if not 0.0 <= self.correlation <= 1.0:
            raise WorkloadError(
                f"correlation must be in [0, 1], got {self.correlation}"
            )
        if self.tuples_per_instance < 0:
            raise WorkloadError("tuples_per_instance must be >= 0")

    def partner(self, key: int) -> int:
        """The fixed partner of ``key`` (a full-cycle affine map, so
        popular keys pair with less popular ones and the key graph has
        off-diagonal structure)."""
        return (key * 31 + 7) % self.keys


class PairsWorkload:
    """Builds the fuzz topology and its per-instance tuple streams."""

    def __init__(self, config: PairsConfig) -> None:
        self.config = config

    def tuples_for_instance(self, instance: int) -> Iterator[Tuple]:
        config = self.config
        rng = derived_rng(config.seed, "pairs", instance)
        zipf = ZipfSampler(config.keys, config.exponent, rng=rng)
        for _ in range(config.tuples_per_instance):
            i = zipf.sample()
            if rng.random() < config.correlation:
                j = config.partner(i)
            else:
                j = zipf.sample()
            yield (i, j)

    def online_topology(self, hybrid: bool = False) -> Topology:
        """``S -> A (table on f0) -> B (table on f1)`` with swappable
        routing tables, for manager-driven fuzz episodes. With
        ``hybrid`` the streams use ``HybridTableFieldsGrouping`` so a
        manager configured with a ``HybridConfig`` can split heavy
        hitters (identical routing until a split set ships)."""
        grouping = HybridTableFieldsGrouping if hybrid else TableFieldsGrouping
        return count_chain(
            lambda ctx: self.tuples_for_instance(ctx.instance_index),
            self.config.parallelism,
            [grouping(0), grouping(1)],
        )

    # ------------------------------------------------------------------
    # Ground truth (the conservation invariant's oracle)
    # ------------------------------------------------------------------

    def expected_counts(self) -> Tuple[dict, dict]:
        """Regenerate the full stream and tally the exact per-key
        counts each POI should hold at quiescence: ``(a_counts,
        b_counts)`` for fields 0 and 1 respectively."""
        a: dict = {}
        b: dict = {}
        for instance in range(self.config.parallelism):
            for i, j in self.tuples_for_instance(instance):
                a[i] = a.get(i, 0) + 1
                b[j] = b.get(j, 0) + 1
        return a, b
