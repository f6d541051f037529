"""The Section 4.2 synthetic workload and its three routing variants.

Tuples are ``(i, j, padding)`` with ``i, j`` in ``0..n-1``. Spout
instance ``i`` always emits first field ``i``, and second field ``i``
with probability ``locality`` (uniform over the others otherwise) — so
that with perfect routing tables, a ``locality`` fraction of the
A→B stream never leaves the server, and (matching Fig. 7d–f) the
spout→A hop is always local.

The three fields-grouping variants of the paper:

- **locality-aware** — the tables an analysis of the data would build:
  first field ``i`` routes to ``A_i``, second field ``j`` to ``B_j``.
- **hash-based** — a "random but deterministic" key → instance
  assignment with the properties the paper measures for Storm's
  default: perfectly balanced load, and co-location probability
  exactly ``1/n`` per hop *independent of the data's locality*
  (Fig. 8's flat hash line, and the 16.6% of Fig. 11a at n = 6).
  A literal random hash over this workload's tiny key space (n keys!)
  would collide and wreck load balance — something neither Storm's
  actual integer hashing nor the paper's smooth curves exhibit — so
  we realize the assignment as two balanced permutations agreeing at
  exactly one point, which yields the 1/n co-location analytically.
- **worst-case** — matched tuples ``(i, i, p)`` are *always* routed
  through the network (to ``B_{(i+1) mod n}``); unmatched tuples fall
  back to hashing. A lower bound with negative synergy with locality.

Every hop but worst-case's A→B is a :class:`TableFieldsGrouping` over
a table naming all n keys, so any backend with batch routing runs it;
worst-case's A→B reads both fields and stays a custom grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.routing_table import RoutingTable
from repro.engine import (
    CustomGrouping,
    Padding,
    TableFieldsGrouping,
    Topology,
    count_chain,
)
from repro.engine.grouping import hash_owner
from repro.errors import WorkloadError
from repro.workloads.zipf import derived_rng

#: The three fields-grouping variants evaluated in Section 4.2.
POLICIES = ("locality-aware", "hash-based", "worst-case")


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic workload."""

    parallelism: int = 2
    #: Probability that a tuple's two integers are equal (60–100% in
    #: the paper).
    locality: float = 0.8
    #: Extra payload bytes per tuple (0–20 kB in the paper).
    padding: int = 0
    seed: int = 0
    #: Cap on emitted tuples per spout instance; None = unbounded.
    tuples_per_instance: int = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise WorkloadError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if not 0.0 <= self.locality <= 1.0:
            raise WorkloadError(
                f"locality must be in [0, 1], got {self.locality}"
            )
        if self.padding < 0:
            raise WorkloadError(f"padding must be >= 0, got {self.padding}")


class SyntheticWorkload:
    """Builds topologies for the Section 4.2 experiments."""

    def __init__(self, config: SyntheticConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Data generation
    # ------------------------------------------------------------------

    def tuples_for_instance(self, instance: int) -> Iterator[Tuple]:
        """The tuple stream of spout instance ``instance``."""
        config = self.config
        n = config.parallelism
        rng = derived_rng(config.seed, instance)
        pad = Padding(config.padding)
        others = [j for j in range(n) if j != instance]
        emitted = 0
        while (
            config.tuples_per_instance is None
            or emitted < config.tuples_per_instance
        ):
            if n == 1 or rng.random() < config.locality:
                j = instance
            else:
                j = others[rng.randrange(len(others))]
            yield (instance, j, pad)
            emitted += 1

    # ------------------------------------------------------------------
    # Topologies
    # ------------------------------------------------------------------

    def topology(self, policy: str) -> Topology:
        """The evaluation application under one routing policy.

        ``S -> A (fields on f0) -> B (fields on f1)``; both POs count
        occurrences of their field, as in Section 4.1.
        """
        if policy not in POLICIES:
            raise WorkloadError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        return count_chain(
            lambda ctx: self.tuples_for_instance(ctx.instance_index),
            self.config.parallelism,
            [self._grouping_sa(policy), self._grouping_ab(policy)],
        )

    def online_topology(self) -> Topology:
        """Same application with swappable (initially empty) routing
        tables, for manager-driven runs."""
        return count_chain(
            lambda ctx: self.tuples_for_instance(ctx.instance_index),
            self.config.parallelism,
            [TableFieldsGrouping(0), TableFieldsGrouping(1)],
        )

    # ------------------------------------------------------------------
    # Grouping variants
    # ------------------------------------------------------------------

    def _grouping_sa(self, policy: str):
        n = self.config.parallelism
        if policy == "locality-aware":
            return _full_table(0, range(n))
        # Both hash-based and worst-case misalign the S->A hop: key i
        # reaches its home server with probability 1/n.
        return _full_table(0, _one_fixed_point_permutation(n))

    def _grouping_ab(self, policy: str):
        n = self.config.parallelism
        if policy == "locality-aware":
            return _full_table(1, range(n))
        if policy == "hash-based":
            # pi2 agrees with pi1 at exactly one key, so the A->B hop is
            # local with probability exactly 1/n for both matched and
            # unmatched tuples — flat in the data's locality, as in
            # Fig. 8.
            return _full_table(1, _second_permutation(n))

        # Worst-case reads both fields, so no table can express it.
        # Matched tuples (i, i, p) are always routed through the
        # network: the tuple sits at A_{pi1[i]}, so aim one server past
        # it. Unmatched tuples hash.
        pi1 = _one_fixed_point_permutation(n)

        def worst_case_ab(values, context):
            if values[0] == values[1]:
                return (pi1[values[1]] + 1) % n
            return hash_owner(values[1], context.seed, n)

        return CustomGrouping(worst_case_ab)


def _full_table(field: int, owners) -> TableFieldsGrouping:
    """Fields grouping on ``field`` whose table names every key:
    key ``i`` goes to instance ``owners[i]``."""
    return TableFieldsGrouping(field, RoutingTable(dict(enumerate(owners))))


def _one_fixed_point_permutation(n: int):
    """A balanced permutation of 0..n-1 with exactly one fixed point
    (n >= 3); identity for n = 1, the swap for n = 2."""
    if n == 1:
        return [0]
    if n == 2:
        return [1, 0]
    perm = [0] * n
    for j in range(1, n - 1):
        perm[j] = j + 1
    perm[n - 1] = 1
    return perm


def _second_permutation(n: int):
    """A permutation agreeing with the first at exactly one position
    (n >= 3): composing with another one-fixed-point permutation does
    it. For n = 2 the group is too small — matched tuples align."""
    pi1 = _one_fixed_point_permutation(n)
    sigma = _one_fixed_point_permutation(n)
    if n == 2:
        return pi1  # agree everywhere; see module docstring
    return [pi1[sigma[j]] for j in range(n)]
