"""A Storm-like stream processing engine as a discrete-event simulation.

The paper evaluates locality-aware routing on Apache Storm running on a
physical cluster. This subpackage substitutes that testbed with a
discrete-event simulation (DES) of the same moving parts:

- a DAG of **operators** (spouts and bolts) replicated into instances
  (POIs) placed on **servers**;
- **routing policies** on every stream: shuffle, local-or-shuffle, and
  fields grouping (hash-based or routing-table-based);
- an explicit **cost model**: per-tuple CPU service time,
  (de)serialization cost for remote sends, finite-bandwidth NIC queues
  and network latency;
- Storm-style **acker flow control** (``max_pending`` in-flight tuples
  per spout), so measured throughput is the bottleneck-stage rate.

See ``DESIGN.md`` Section 5 for the calibration rationale.

The DES is one of several *execution backends*: the
``repro.engine.physical`` seam (re-exported here) lets the same
topology run on pluggable drivers, and ``repro.engine.backends``
(imported lazily — it needs numpy) registers the reference DES and the
batched-vectorized fast path behind ``run_topology``; see
``DESIGN.md`` Section 15.
"""

from repro.engine.cluster import Cluster, Server
from repro.engine.costs import CostModel, DEFAULT_COSTS
from repro.engine.grouping import (
    BroadcastGrouping,
    CustomGrouping,
    FieldsGrouping,
    GlobalGrouping,
    HybridTableFieldsGrouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    ShuffleGrouping,
    TableFieldsGrouping,
)
from repro.engine.operators import (
    Bolt,
    CountBolt,
    OperatorContext,
    PartialCountBolt,
    PassThroughBolt,
    Spout,
    StatefulBolt,
    SumBolt,
)
from repro.engine.physical import (
    OpStats,
    PhysicalEdge,
    PhysicalOperator,
    PhysicalPlan,
    SourceOperator,
    TupleBatch,
)
from repro.engine.runner import Deployment, RunConfig, RunResult, deploy, run
from repro.engine.simulator import Simulator
from repro.engine.topology import Topology, TopologyBuilder, count_chain
from repro.engine.tuples import Padding, Tuple

__all__ = [
    "Simulator",
    "Cluster",
    "Server",
    "CostModel",
    "DEFAULT_COSTS",
    "Topology",
    "TopologyBuilder",
    "count_chain",
    "Spout",
    "Bolt",
    "StatefulBolt",
    "CountBolt",
    "PassThroughBolt",
    "OperatorContext",
    "Tuple",
    "Padding",
    "ShuffleGrouping",
    "LocalOrShuffleGrouping",
    "FieldsGrouping",
    "TableFieldsGrouping",
    "HybridTableFieldsGrouping",
    "GlobalGrouping",
    "BroadcastGrouping",
    "PartialKeyGrouping",
    "CustomGrouping",
    "PartialCountBolt",
    "SumBolt",
    "RunConfig",
    "RunResult",
    "Deployment",
    "deploy",
    "run",
    "PhysicalOperator",
    "SourceOperator",
    "PhysicalEdge",
    "PhysicalPlan",
    "TupleBatch",
    "OpStats",
]
