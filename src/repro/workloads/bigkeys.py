"""A million-key workload for routing-table scale experiments.

The paper's workloads have figure-scale key populations (thousands);
the ROADMAP north-star is millions of users. This generator produces a
keyspace of ``num_keys`` string keys ("user-0000042"-style — realistic
repr cost on the wire), an explicit routing table covering a
configurable fraction of them, and *epochs*: successive tables where a
fixed number of keys (``churn_keys``) change owner per epoch, the way a
manager round moves a bounded set of keys regardless of table size.
Fixed-count churn is what makes delta-encoded PROPAGATE sub-linear in
the key count — ``repro.analysis.experiments.scale_point`` measures
exactly that (EXPERIMENTS.md "Scaling to millions of keys").

Uncovered keys (``1 - table_coverage`` of the population) exercise the
compact table's front filter: they must short-circuit to hash fallback
without a false route, within the configured budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.core.routing_table import RoutingTable
from repro.engine import TableFieldsGrouping, Topology, count_chain
from repro.errors import WorkloadError
from repro.workloads.zipf import derived_rng


@dataclass(frozen=True)
class BigKeysConfig:
    """Parameters of the big-keys workload."""

    parallelism: int = 4
    #: distinct keys in the population (the scale axis: 10k → 1M+)
    num_keys: int = 1_000_000
    #: fraction of the population with an explicit routing-table entry
    table_coverage: float = 0.5
    #: keys whose owner changes per epoch — fixed count, *not* a
    #: fraction, so per-round control-plane churn is scale-independent
    churn_keys: int = 1024
    #: prefix of generated keys (affects modeled wire/memory bytes)
    key_prefix: str = "user"
    seed: int = 0
    #: cap on emitted tuples per spout instance in the smoke topology
    tuples_per_instance: Optional[int] = 2000

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise WorkloadError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.num_keys < 1:
            raise WorkloadError(
                f"num_keys must be >= 1, got {self.num_keys}"
            )
        if not 0.0 <= self.table_coverage <= 1.0:
            raise WorkloadError(
                f"table_coverage must be in [0, 1], got "
                f"{self.table_coverage}"
            )
        if self.churn_keys < 0:
            raise WorkloadError(
                f"churn_keys must be >= 0, got {self.churn_keys}"
            )


class BigKeysWorkload:
    """Builds million-key routing tables and a smoke topology."""

    def __init__(self, config: BigKeysConfig) -> None:
        self.config = config
        #: digits in the zero-padded key suffix (stable key length)
        self._width = max(7, len(str(config.num_keys - 1)))

    # ------------------------------------------------------------------
    # Keyspace
    # ------------------------------------------------------------------

    def key(self, index: int) -> str:
        return f"{self.config.key_prefix}-{index:0{self._width}d}"

    @property
    def table_size(self) -> int:
        """Entries in each epoch's table (covered fraction)."""
        return int(self.config.num_keys * self.config.table_coverage)

    def base_owner(self, index: int) -> int:
        """The epoch-0 owner of covered key ``index`` (round-robin, so
        tables are balanced by construction)."""
        return index % self.config.parallelism

    # ------------------------------------------------------------------
    # Tables and epochs
    # ------------------------------------------------------------------

    def make_table(self, epoch: int = 0) -> RoutingTable:
        """The routing table of ``epoch``: the epoch-0 assignment with
        every churn window up to ``epoch`` applied. Windows walk the
        covered keyspace so consecutive epochs differ in exactly
        ``min(churn_keys, table_size)`` owners — the bounded per-round
        movement a real manager produces."""
        size = self.table_size
        mapping: Dict[str, int] = {
            index: self.base_owner(index) for index in range(size)
        }
        for past in range(1, epoch + 1):
            self._apply_churn(mapping, past)
        return RoutingTable(
            {self.key(index): owner for index, owner in mapping.items()}
        )

    def _apply_churn(self, mapping: Dict[int, int], epoch: int) -> None:
        size = self.table_size
        if size == 0 or self.config.churn_keys == 0:
            return
        churn = min(self.config.churn_keys, size)
        start = ((epoch - 1) * churn) % size
        # shift in 1..P-1, so churned keys always change owner (with
        # P == 1 there is nowhere to move; churn degenerates to zero)
        P = self.config.parallelism
        shift = 1 + (epoch - 1) % max(1, P - 1)
        for offset in range(churn):
            index = (start + offset) % size
            mapping[index] = (mapping[index] + shift) % P

    # ------------------------------------------------------------------
    # Data generation (smoke topology)
    # ------------------------------------------------------------------

    def tuples_for_instance(self, instance: int) -> Iterator[Tuple]:
        """Uniform draws over the whole population, covered or not —
        uncovered keys exercise the hash fallback / front filter."""
        config = self.config
        rng = derived_rng(config.seed, "bigkeys", instance)
        emitted = 0
        while (
            config.tuples_per_instance is None
            or emitted < config.tuples_per_instance
        ):
            yield (self.key(rng.randrange(config.num_keys)),)
            emitted += 1

    def topology(self) -> Topology:
        """``S -> A`` counting on field 0 with the epoch-0 table."""
        return count_chain(
            lambda ctx: self.tuples_for_instance(ctx.instance_index),
            self.config.parallelism,
            [TableFieldsGrouping(0, table=self.make_table(0))],
        )

    def expected_counts(self) -> Dict:
        """Exact per-key counts at quiescence (conservation oracle)."""
        counts: Dict = {}
        for instance in range(self.config.parallelism):
            for (key,) in self.tuples_for_instance(instance):
                counts[key] = counts.get(key, 0) + 1
        return counts
