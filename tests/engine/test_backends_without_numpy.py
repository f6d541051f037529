"""The public entry point without numpy (DESIGN.md §15).

numpy is a dependency of the batch backends only (pyproject's optional
``batch`` extra): ``repro.engine.backends`` loads ``vectorized`` and
``multiprocess`` when a run first names them. With numpy unimportable,
a fresh interpreter must still run the ``flickr-des-online`` shape
through ``run_topology(..., "reference")`` with a live Algorithm 1
round, plan a week the way ``twitter-plan`` does, and get a named
``DeploymentError`` from either batch backend.
"""

import os
import subprocess
import sys
import textwrap

import repro

_PRELUDE = """
import sys
sys.modules["numpy"] = None  # any 'import numpy' now raises
from repro.engine import CountBolt, Padding, TableFieldsGrouping, TopologyBuilder
from repro.engine.backends import BackendOptions, run_topology
from repro.engine.operators import IteratorSpout


def topology(blocks):
    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(
        lambda ctx: iter(blocks[ctx.instance_index])), len(blocks))
    builder.bolt("A", lambda: CountBolt(0, forward=True), len(blocks),
                 inputs={"S": TableFieldsGrouping(0)})
    builder.bolt("B", lambda: CountBolt(1, forward=False), len(blocks),
                 inputs={"A": TableFieldsGrouping(1)})
    return builder.build()


def assert_numpy_free():
    loaded = [name for name in ("numpy", "repro.engine.backends.vectorized",
                                "repro.engine.backends.multiprocess")
              if sys.modules.get(name) is not None]
    assert not loaded, loaded
"""

_DES_AND_PLANNER = """
from collections import Counter

from repro.core import (
    CompactRoutingTable, KeyGraph, Manager, ManagerConfig, TableDelta,
    plan_reconfiguration,
)
from repro.core.assignment import RoutedStream
from repro.core.routing_table import table_fingerprint
from repro.spacesaving import SpaceSaving
from repro.workloads.flickr import FlickrConfig, FlickrWorkload
from repro.workloads.twitter import TwitterConfig, TwitterWorkload

assert_numpy_free()

# flickr-des-online: S -> A -> B over 4 servers, tables start empty and
# one Algorithm 1 round rewrites them while the stream flows
dataset = FlickrWorkload(FlickrConfig(seed=0, num_tags=2_000))
blocks = [
    [(tag, country, Padding(4000))
     for tag, country in dataset.pairs(400, stream_seed=(1, instance))]
    for instance in range(4)
]
managers = []


def attach(deployment):
    manager = Manager(deployment, ManagerConfig(
        period_s=None, sketch_capacity=10_000, max_edges=500))
    managers.append(manager)
    deployment.sim.schedule(0.005, manager.reconfigure)


result = run_topology(
    topology(blocks), "reference",
    BackendOptions(num_servers=4, on_deployed=attach),
)
(manager,) = managers
assert len(manager.completed_rounds) == 1, manager.rounds
assert not manager.aborted_rounds, manager.aborted_rounds
emitted = [values for block in blocks for values in block]
assert result.per_key_totals["A"] == Counter(v[0] for v in emitted)
assert result.per_key_totals["B"] == Counter(v[1] for v in emitted)
assert result.processed == {"A": len(emitted), "B": len(emitted)}

# twitter-plan: sketch -> key graph -> plan against installed tables ->
# delta encode / apply -> compaction
streams = [RoutedStream("S->A", "S", "A", [0, 1, 2, 3]),
           RoutedStream("A->B", "A", "B", [0, 1, 2, 3])]
weeks = TwitterWorkload(TwitterConfig(seed=0, tweets_per_week=500))
tables = {}
for week in (0, 1):
    sketch = SpaceSaving(10_000)
    for pair in weeks.week_pairs(week):
        sketch.offer(pair)
    graph = KeyGraph.from_stats({("S->A", "A->B"): sketch.items()})
    plan = plan_reconfiguration(graph, streams, 4, tables, seed=0)
    for stream, new in plan.tables.items():
        old = tables.get(stream)
        applied = TableDelta.diff(old, new).apply(old)
        assert table_fingerprint(applied) == table_fingerprint(new)
        compact = CompactRoutingTable.from_table(new)
        assert len(new) > 0
        assert all(compact.lookup(key) == owner for key, owner in new.items())
    tables = plan.tables

assert_numpy_free()
"""

_BATCH_BACKENDS_NAME_NUMPY = """
from repro.errors import DeploymentError

for backend in ("vectorized", "multiprocess"):
    try:
        run_topology(topology([[(1, 2)], [(2, 3)]]), backend)
    except DeploymentError as exc:
        assert repr(backend) in str(exc) and "numpy" in str(exc), exc
    else:
        raise AssertionError(f"{backend} ran without numpy")
assert_numpy_free()
"""


def _run_without_numpy(body):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_PRELUDE) + body],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_the_des_and_the_planner_run_without_numpy():
    _run_without_numpy(_DES_AND_PLANNER)


def test_a_batch_backend_without_numpy_is_a_named_error():
    _run_without_numpy(_BATCH_BACKENDS_NAME_NUMPY)
