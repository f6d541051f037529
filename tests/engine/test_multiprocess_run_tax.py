"""What a multiprocess run pays besides its work (DESIGN.md §16.5).

Every worker is a fresh fork and every run forks again, so anything a
worker does once is done ``servers × runs`` times:

1. **No late imports** — a module first imported inside ``run()`` is
   imported again by every worker of every run. Each worker reports the
   ``sys.modules`` names that appeared during its run; the list is
   empty for every routing policy (checked from a fresh interpreter, as a
   parent that already holds the module would hide the import). Its
   first run loads the backend module, and numpy, before it forks.
2. **The run timeline** — seven marks a worker, five for the
   coordinator, on one clock.
3. **Pipes that hold a message** — every queue's pipe is raised to
   ``_PIPE_BYTES`` where the platform can; where it cannot, the run is
   only slower.
4. **No STOP round trip** — a worker stops once it is FINISHED and has
   replayed every scripted action, including one that fires only after
   all have finished.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.routing_table import RoutingTable
from repro.engine.backends import (
    BackendOptions,
    ReconfigureAction,
    multiprocess,
    run_topology,
)
from repro.engine.grouping import hash_owner, stream_seed
from repro.testing.equivalence import run_equivalence
from repro.workloads.skew import SkewConfig, SkewWorkload

pytestmark = pytest.mark.timeout(120)

WORKER_MARKS = [
    "start",
    "setup",
    "first_batch",
    "sources_done",
    "finished",
    "stopped",
    "result_put",
]
COORDINATOR_MARKS = [
    "forked",
    "all_finished",
    "results_in",
    "assembled",
    "joined",
]


def assert_no_orphans():
    assert [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-mp-worker")
    ] == []


def _skew(seed=0, tuples_per_instance=300):
    config = SkewConfig(
        parallelism=4, seed=seed, tuples_per_instance=tuples_per_instance
    )
    return SkewWorkload(config).topology("table")


# ----------------------------------------------------------------------
# 1. late imports
# ----------------------------------------------------------------------

_LATE_IMPORTS_SCRIPT = textwrap.dedent(
    """
    import json
    import os
    import sys
    from repro.core.routing_table import RoutingTable
    from repro.engine import CountBolt, TopologyBuilder
    from repro.engine.backends import BackendOptions, run_topology
    from repro.engine.grouping import (
        BroadcastGrouping, FieldsGrouping, HybridTableFieldsGrouping,
        PartialKeyGrouping, ShuffleGrouping, TableFieldsGrouping,
    )
    from repro.engine.operators import IteratorSpout

    # the first run loads the backend, and numpy, before its forks
    assert "repro.engine.backends.multiprocess" not in sys.modules
    assert "numpy" not in sys.modules
    numpy_at_fork = []
    fork = os.fork

    def recording_fork():
        numpy_at_fork.append("numpy" in sys.modules)
        return fork()

    os.fork = recording_fork

    def source(ctx):
        for i in range(150):
            key = (7 * i + ctx.instance_index) % 23
            yield (key, key % 6)

    def two_stage(second):
        # S(2) -> A(4) -> B(4) on two servers: A's shards host two
        # instances each, so what they emit mixes source instances
        builder = TopologyBuilder()
        builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
        builder.bolt("A", lambda: CountBolt(0, forward=True), 4,
                     inputs={"S": FieldsGrouping(0)})
        builder.bolt("B", lambda: CountBolt(1, forward=False), 4,
                     inputs={"A": second})
        return builder.build()

    table = RoutingTable({0: 3, 1: 2, 2: 1}, splits={5: (0, 1, 2)})
    late = {}
    for grouping in (
        TableFieldsGrouping(1, table=table),
        FieldsGrouping(1),
        HybridTableFieldsGrouping(1, table=table),
        PartialKeyGrouping(1),
        ShuffleGrouping(),
        BroadcastGrouping(),
    ):
        result = run_topology(
            two_stage(grouping), "multiprocess",
            BackendOptions(num_servers=2, batch_size=64, mp_timeout_s=60),
        )
        assert result.processed["B"] >= 300
        late[type(grouping).__name__] = {
            server: stats["late_imports"]
            for server, stats in result.measured["per_server"].items()
        }
    print(json.dumps({"late": late, "numpy_at_fork": numpy_at_fork}))
    """
)


def test_no_worker_imports_anything_during_its_run():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _LATE_IMPORTS_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=100,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["numpy_at_fork"] == [True] * 12  # 6 runs, 2 workers each
    late = out["late"]
    assert sorted(late) == [
        "BroadcastGrouping", "FieldsGrouping", "HybridTableFieldsGrouping",
        "PartialKeyGrouping", "ShuffleGrouping", "TableFieldsGrouping",
    ]
    for grouping, per_server in late.items():
        assert per_server == {"0": [], "1": []}, (grouping, per_server)


# ----------------------------------------------------------------------
# 2. the timeline
# ----------------------------------------------------------------------


def test_timelines_are_monotone_and_on_one_clock():
    result = run_topology(
        _skew(), "multiprocess", BackendOptions(mp_timeout_s=60)
    )
    coordinator = result.measured["timeline"]
    assert list(coordinator) == COORDINATOR_MARKS
    at = [coordinator[name] for name in COORDINATOR_MARKS]
    assert at == sorted(at) and at[0] > 0
    # the run's wall clock stops when the last RESULT is in; the
    # summary and the join are the tail the caller still waits for
    assert coordinator["results_in"] == result.wall_s
    last_start = 0.0
    for server, stats in result.measured["per_server"].items():
        timeline = stats["timeline"]
        assert sorted(timeline) == sorted(WORKER_MARKS), server
        at = [timeline[name] for name in WORKER_MARKS]
        assert at == sorted(at), (server, timeline)
        # inside the wall clock, on the coordinator's clock: no worker
        # runs before the run starts or reports after its result is in
        assert 0 < at[0] and at[-1] < result.wall_s, (server, timeline)
        assert timeline["finished"] <= coordinator["all_finished"]
        last_start = max(last_start, timeline["start"])
    # Workers are forked one after the other and start at once, so all
    # but the last run before ``forked``; the last cannot be far off.
    assert last_start > coordinator["forked"] - 0.5
    assert_no_orphans()


# ----------------------------------------------------------------------
# 3. pipe capacity
# ----------------------------------------------------------------------


def _pipe_limit():
    try:
        with open("/proc/sys/fs/pipe-max-size") as handle:
            return int(handle.read())
    except (OSError, ValueError):
        return 0


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or _pipe_limit() < multiprocess._PIPE_BYTES,
    reason="needs Linux F_SETPIPE_SZ and pipe-max-size >= 1 MiB",
)
def test_every_deployed_queue_has_a_pipe_that_holds_a_message(monkeypatch):
    import fcntl

    capacities = []
    widen = multiprocess._widen_pipe

    def widen_and_read_back(box):
        widen(box)
        capacities.append(
            fcntl.fcntl(box._reader.fileno(), fcntl.F_GETPIPE_SZ)
        )

    monkeypatch.setattr(multiprocess, "_widen_pipe", widen_and_read_back)
    run_topology(_skew(), "multiprocess", BackendOptions(mp_timeout_s=60))
    assert len(capacities) == 4 + 1  # four inboxes and the events queue
    assert min(capacities) >= multiprocess._PIPE_BYTES
    assert_no_orphans()


def _refuse(*args):
    raise PermissionError("pipe-user-pages-hard reached")


@pytest.mark.parametrize("how", ["no-F_SETPIPE_SZ", "refused"])
def test_a_platform_that_cannot_widen_pipes_only_runs_slower(
    monkeypatch, how
):
    fcntl = pytest.importorskip("fcntl")
    if how == "refused":
        monkeypatch.setattr(fcntl, "fcntl", _refuse)
    else:
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
    report, _, cand = run_equivalence(
        lambda: _skew(seed=1),
        candidate="multiprocess",
        candidate_options=BackendOptions(mp_timeout_s=60, batch_size=64),
        locality_tol=1e-9,
        balance_tol=1e-9,
    )
    assert report.ok, report.summary()
    assert cand.tuples_emitted == 4 * 300
    assert_no_orphans()


# ----------------------------------------------------------------------
# 4. stopping without being told to
# ----------------------------------------------------------------------


def test_an_action_that_fires_after_everyone_finished_is_still_replayed():
    """``at_tuples`` beyond the input: the coordinator fires the action
    once all workers are FINISHED, so a FINISHED worker must not stop
    before it has replayed it (state then sits at the new owners)."""
    topology = _skew()
    (stream,) = topology.streams  # S -> A
    width = topology.operator("A").parallelism
    plain = run_topology(
        _skew(), "multiprocess", BackendOptions(mp_timeout_s=60)
    )
    keys = list(plain.per_key_totals["A"])
    seed = stream_seed(stream.name)
    moved = RoutingTable(
        {key: (hash_owner(key, seed, width) + 1) % width for key in keys}
    )
    result = run_topology(
        topology,
        "multiprocess",
        BackendOptions(
            mp_timeout_s=60,
            actions=[ReconfigureAction(10**9, stream.name, table=moved)],
        ),
    )
    assert result.per_key_totals["A"] == plain.per_key_totals["A"]
    assert result.key_instances["A"] == {
        key: (moved.lookup(key),) for key in keys
    }
    for stats in result.measured["per_server"].values():
        timeline = stats["timeline"]
        assert timeline["finished"] <= timeline["stopped"]
    assert_no_orphans()
