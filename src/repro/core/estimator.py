"""Reconfiguration benefit estimation (paper Section 6, future work).

"When the workload is very volatile, it is important to avoid
triggering reconfigurations for ephemeral correlations, as the cost of
reconfiguring would not be amortized. As future work, we will design
estimators able to predict the impact of a reconfiguration to provide
more fine-grained information to the manager."

This module implements that estimator. Given the collected statistics,
the current tables and a candidate plan, it predicts:

- **benefit**: network bytes saved per observed tuple by the new
  assignment (locality delta × average remote tuple cost), projected
  over an amortization horizon;
- **cost**: bytes of state to migrate plus control traffic.

The planner (:func:`repro.core.assignment.plan_reconfiguration`, given
an ``estimator``) calls :meth:`ReconfigurationEstimator.evaluate` and
marks the plan ``vetoed`` when the projected benefit does not cover
the cost by the configured margin; the manager then skips deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.assignment import ReconfigurationPlan, RoutedStream
from repro.core.keygraph import KeyGraph
from repro.core.routing_table import RoutingTable


@dataclass(frozen=True)
class EstimatorConfig:
    """Cost constants for the benefit/cost projection."""

    #: Modeled bytes per migrated key (state entry + framing).
    state_bytes_per_key: int = 64
    #: Modeled bytes of one average data tuple crossing the network.
    tuple_bytes: int = 256
    #: Tuples expected before the *next* reconfiguration (how long the
    #: new tables get to amortize the migration).
    horizon_tuples: int = 1_000_000
    #: Deploy only when benefit >= margin × cost.
    margin: float = 1.0


@dataclass
class Estimate:
    """The estimator's verdict for one candidate plan."""

    locality_before: float
    locality_after: float
    moved_keys: int
    #: projected network bytes saved over the horizon
    benefit_bytes: float
    #: migration + control bytes to pay now
    cost_bytes: float

    @property
    def locality_gain(self) -> float:
        return self.locality_after - self.locality_before

    def worthwhile_with_margin(self, margin: float) -> bool:
        return self.benefit_bytes >= margin * self.cost_bytes


class ReconfigurationEstimator:
    """Predicts the impact of deploying a candidate plan."""

    def __init__(self, config: EstimatorConfig = EstimatorConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Locality prediction
    # ------------------------------------------------------------------

    def predicted_locality(
        self,
        keygraph: KeyGraph,
        tables: Mapping[str, RoutingTable],
        streams: Sequence[RoutedStream],
    ) -> float:
        """Locality the statistics would see under ``tables``: each
        observed pair is routed exactly as the engine would
        (:meth:`RoutedStream.owner`)."""
        by_name = {stream.name: stream for stream in streams}
        total = 0.0
        colocated = 0.0
        for (stream_u, key_u), (stream_v, key_v), weight in keygraph.edges():
            owner_u, _ = by_name[stream_u].owner(key_u, tables.get(stream_u))
            owner_v, _ = by_name[stream_v].owner(key_v, tables.get(stream_v))
            total += weight
            if owner_u == owner_v:
                colocated += weight
        if total == 0.0:
            return 1.0
        return colocated / total

    # ------------------------------------------------------------------
    # Benefit / cost
    # ------------------------------------------------------------------

    def evaluate(
        self,
        keygraph: KeyGraph,
        plan: ReconfigurationPlan,
        old_tables: Mapping[str, RoutingTable],
        streams: Sequence[RoutedStream],
    ) -> Estimate:
        """Full estimate for deploying ``plan`` over ``old_tables``."""
        config = self.config
        before = self.predicted_locality(keygraph, old_tables, streams)
        after = self.predicted_locality(keygraph, plan.tables, streams)
        moved = plan.total_moved_keys()

        # Remote traffic avoided per tuple = locality gain × one
        # network crossing of an average tuple.
        saved_per_tuple = max(0.0, after - before) * config.tuple_bytes
        benefit = saved_per_tuple * config.horizon_tuples
        cost = moved * config.state_bytes_per_key
        return Estimate(
            locality_before=before,
            locality_after=after,
            moved_keys=moved,
            benefit_bytes=benefit,
            cost_bytes=float(cost),
        )
