"""The multiprocess backend: equivalence, faults, teardown.

Four layers of lockdown for `repro.engine.backends.multiprocess`:

1. **Equivalence stress** — ten seeds of the skew workload plus fig13
   and a 2→4 rescale replay must match the reference DES under the
   tiered exactness contract (strict for table/hash, containment for
   hybrid), with per-server CPU ns and inter-process bytes reported as
   *measured* values.
2. **Properties** (mirror of ``test_vectorized_routers``): for random
   mixed-type key streams run through the *real* backend, table/hash
   placements equal the routers' per-tuple ``select``; hybrid
   and PKG keep per-key totals exact with placements contained in the
   member/candidate sets.
3. **Routing's other paths** — fallback groupings with multi-
   destination selects, mixed-source-instance batches under hybrid and
   PKG (``parallelism > num_servers``), and the per-tuple
   ``table_hits`` / ``hash_fallbacks`` identity across all three
   backends.
4. **Failure handling** — an injected worker crash mid-batch and an
   injected hang both surface as a structured
   :class:`MultiprocessBackendError` (partial progress attached), tiny
   queues exercise the backpressure path, and *every* test asserts no
   child process survives.
"""

import math
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing_table import RoutingTable
from repro.engine import (
    CountBolt,
    TableFieldsGrouping,
    TopologyBuilder,
)
from repro.engine.backends import (
    BackendOptions,
    MultiprocessBackendError,
    ReconfigureAction,
    available_backends,
    run_topology,
)
from repro.engine.grouping import (
    BroadcastGrouping,
    CustomGrouping,
    FieldsGrouping,
    GlobalGrouping,
    HybridTableFieldsGrouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    RouterContext,
    candidate_instances,
    stable_hash,
)
from repro.engine.operators import IteratorSpout, StatefulBolt
from repro.testing.episode import attempt_rescale
from repro.testing.equivalence import compare_backends, run_equivalence
from repro.workloads.skew import SkewConfig, SkewWorkload

pytestmark = pytest.mark.timeout(120)

STRICT = dict(locality_tol=1e-9, balance_tol=1e-9)


def assert_no_orphans():
    """Every worker the backend forked must be gone again."""
    leaked = [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-mp-worker")
    ]
    assert leaked == []


def mp_options(**kw):
    kw.setdefault("mp_timeout_s", 60)
    return BackendOptions(**kw)


def test_backend_is_registered():
    assert "multiprocess" in available_backends()


# ----------------------------------------------------------------------
# Equivalence stress
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_skew_table_equivalence_ten_seeds(seed):
    config = SkewConfig(
        parallelism=4, seed=seed, tuples_per_instance=300
    )
    report, ref, cand = run_equivalence(
        lambda: SkewWorkload(config).topology("table"),
        candidate="multiprocess",
        candidate_options=mp_options(),
        **STRICT,
    )
    assert report.ok, report.summary()
    # OpStats aggregated across workers must equal the DES totals:
    # no double-count, no loss (the merge_counts contract, end to end)
    for op, count in ref.processed.items():
        assert cand.op_stats[op]["tuples_in"] == count
    assert_no_orphans()


@pytest.mark.parametrize("policy", ["hash", "hybrid"])
def test_skew_policies_equivalence(policy):
    config = SkewConfig(parallelism=4, seed=1, tuples_per_instance=400)
    relaxed = policy == "hybrid"
    report, _, cand = run_equivalence(
        lambda: SkewWorkload(config).topology(policy),
        candidate="multiprocess",
        candidate_options=mp_options(),
        locality_tol=0.05 if relaxed else 1e-9,
        balance_tol=0.15 if relaxed else 1e-9,
        exact_placements=not relaxed,
        exact_received=not relaxed,
    )
    assert report.ok, report.summary()
    assert cand.measured["cpu_ns_total"] > 0
    assert_no_orphans()


def test_fig13_equivalence():
    from repro.workloads.flickr import FlickrConfig, FlickrWorkload

    workload = FlickrWorkload(FlickrConfig(seed=0))
    report, _, cand = run_equivalence(
        lambda: workload.topology(
            parallelism=4, padding=1000, tuples_per_instance=500
        ),
        candidate="multiprocess",
        candidate_options=mp_options(),
        **STRICT,
    )
    assert report.ok, report.summary()
    assert_no_orphans()


def _rescale_topology(
    seed,
    spouts=3,
    tuples_per_instance=800,
    width=2,
    sink=lambda: CountBolt(1, forward=False),
):
    import random

    def source(ctx):
        rng = random.Random(seed * 1000003 + ctx.instance_index)
        for _ in range(tuples_per_instance):
            a = rng.randrange(12)
            yield (a, a + 100)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=spouts)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=width,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B", sink, parallelism=width, inputs={"A": TableFieldsGrouping(1)}
    )
    return builder.build()


def test_rescale_replay_2_to_4():
    """The DES manager's 2→4 rescale, replayed through the
    multiprocess control channel at the tuple offset of the DES's
    first spout swap: per-key totals, placements and what each
    instance received match the DES exactly."""
    from repro.core import Manager, ManagerConfig

    seed, after = 3, 4

    def attach_manager(deployment):
        manager = Manager(deployment, ManagerConfig(period_s=None))
        sim = deployment.sim
        sim.schedule(0.02, attempt_rescale, sim, manager, after, math.inf)

    options = mp_options(num_servers=after, on_deployed=attach_manager)
    report, ref, cand = run_equivalence(
        lambda: _rescale_topology(seed),
        reference_options=options,
        candidate="multiprocess",
        candidate_options=options,
    )
    assert report.ok, report.summary()
    assert ref.handle.manager.tier_parallelism == after
    assert len(cand.received["B"]) == after
    assert_no_orphans()


# ----------------------------------------------------------------------
# Measured costs
# ----------------------------------------------------------------------


def test_measured_costs_shape():
    config = SkewConfig(parallelism=4, seed=0, tuples_per_instance=200)
    result = run_topology(
        SkewWorkload(config).topology("table"),
        "multiprocess",
        mp_options(),
    )
    measured = result.measured
    assert sorted(measured["per_server"]) == [0, 1, 2, 3]
    for stats in measured["per_server"].values():
        assert stats["cpu_ns"] > 0
    assert measured["cpu_ns_total"] == sum(
        s["cpu_ns"] for s in measured["per_server"].values()
    )
    # conservation on the wire: every byte sent was received
    assert measured["ipc_bytes_total"] == sum(
        s["ipc_rx_bytes"] for s in measured["per_server"].values()
    )
    assert result.sim_s > 0
    assert_no_orphans()


def test_single_server_run_has_zero_ipc():
    """With one server every edge is intra-server: locality is total
    and not a single byte crosses a process boundary."""
    config = SkewConfig(parallelism=4, seed=0, tuples_per_instance=200)
    result = run_topology(
        SkewWorkload(config).topology("hash"),
        "multiprocess",
        mp_options(num_servers=1),
    )
    assert result.locality == 1.0
    assert result.measured["ipc_bytes_total"] == 0
    assert_no_orphans()


# ----------------------------------------------------------------------
# Properties: real-backend routing == scalar routers
# ----------------------------------------------------------------------

keys_st = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
)
# unique=True (value equality) keeps 1 / 1.0 / True apart: they are
# distinct routing keys but would alias as CountBolt state dict keys
key_lists = st.lists(keys_st, min_size=1, max_size=12, unique=True)

REPEATS = 3


def _keyed_topology(keys, grouping, parallelism):
    def source(ctx):
        for _ in range(REPEATS):
            for key in keys:
                yield (key,)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=1)
    builder.bolt(
        "C",
        lambda: CountBolt(0, forward=False),
        parallelism=parallelism,
        inputs={"S": grouping},
    )
    return builder.build()


def _scalar_router(grouping, parallelism, num_servers=2):
    return grouping.build_router(
        RouterContext(
            stream_name="S->C",
            src_instance=0,
            src_server=0,
            dst_placements=[
                i % num_servers for i in range(parallelism)
            ],
            seed=stable_hash("S->C"),
        )
    )


@given(keys=key_lists, n=st.integers(min_value=1, max_value=5))
@settings(max_examples=12, deadline=None)
def test_mp_hash_placements_match_scalar_router(keys, n):
    result = run_topology(
        _keyed_topology(keys, FieldsGrouping(0), n),
        "multiprocess",
        mp_options(num_servers=2),
    )
    router = _scalar_router(FieldsGrouping(0), n)
    for key in keys:
        assert result.per_key_totals["C"][key] == REPEATS
        assert result.key_instances["C"][key] == tuple(
            router.select((key,))
        )
    assert_no_orphans()


@given(
    keys=key_lists,
    n=st.integers(min_value=2, max_value=5),
    mapped=st.dictionaries(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=0, max_value=1),
        max_size=10,
    ),
)
@settings(max_examples=12, deadline=None)
def test_mp_table_placements_match_scalar_router(keys, n, mapped):
    table = RoutingTable(mapped)
    result = run_topology(
        _keyed_topology(keys, TableFieldsGrouping(0, table=table), n),
        "multiprocess",
        mp_options(num_servers=2),
    )
    router = _scalar_router(TableFieldsGrouping(0, table=table), n)
    for key in keys:
        assert result.per_key_totals["C"][key] == REPEATS
        assert result.key_instances["C"][key] == tuple(
            router.select((key,))
        )
    assert_no_orphans()


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=30),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    n=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=10, deadline=None)
def test_mp_hybrid_totals_exact_and_contained(keys, n):
    # key 0 is split over {0, 1}; the tail routes like a table router
    table = RoutingTable(
        {k: k % n for k in range(5)}, splits={0: (0, 1)}
    )
    result = run_topology(
        _keyed_topology(
            keys, HybridTableFieldsGrouping(0, table=table), n
        ),
        "multiprocess",
        mp_options(num_servers=2),
    )
    tail = _scalar_router(TableFieldsGrouping(0, table=table), n)
    for key in keys:
        assert result.per_key_totals["C"][key] == REPEATS
        placed = result.key_instances["C"][key]
        if key == 0:
            assert set(placed) <= {0, 1}
        else:
            assert placed == tuple(tail.select((key,)))
    assert_no_orphans()


@given(
    keys=st.lists(
        st.integers(min_value=-50, max_value=50),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    n=st.integers(min_value=2, max_value=5),
    d=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_mp_pkg_totals_exact_and_contained(keys, n, d):
    result = run_topology(
        _keyed_topology(keys, PartialKeyGrouping(0, d=d), n),
        "multiprocess",
        mp_options(num_servers=2),
    )
    seed = stable_hash("S->C")
    for key in keys:
        assert result.per_key_totals["C"][key] == REPEATS
        cands = candidate_instances(key, seed, n, d)
        assert set(result.key_instances["C"][key]) <= set(cands)
    assert_no_orphans()


# ----------------------------------------------------------------------
# Routing's other paths: the default route, per-source routers,
# per-tuple counters
# ----------------------------------------------------------------------


def _two_stage(first, second, tuples_per_instance=150):
    """S(2) -> A(4) -> B(4): on two servers every A shard hosts two
    instances, so the batches it emits mix source instances."""

    def source(ctx):
        for i in range(tuples_per_instance):
            key = (7 * i + ctx.instance_index) % 23
            yield (key, key % 6)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=4,
        inputs={"S": first},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=4,
        inputs={"A": second},
    )
    return builder.build()


def _fan_out(values, context):
    """Custom route: zero, one or two destinations per tuple."""
    return [(values[0] + i) % 4 for i in range(values[0] % 3)]


@pytest.mark.parametrize(
    "grouping",
    [
        BroadcastGrouping(),
        GlobalGrouping(),
        LocalOrShuffleGrouping(),
        CustomGrouping(_fan_out),
    ],
    ids=["broadcast", "global", "local-or-shuffle", "custom-fan-out"],
)
def test_fallback_groupings_match_the_reference(grouping):
    """Policies with no batch form go through the default ``route``, a
    loop of ``select`` — multi-destination and empty selects included —
    and stay per-tuple identical to the DES (the downstream table
    stream then sees replicated tuples from mixed source instances)."""
    report, ref, cand = run_equivalence(
        lambda: _two_stage(grouping, FieldsGrouping(1)),
        reference_options=BackendOptions(num_servers=2),
        candidate="multiprocess",
        candidate_options=mp_options(num_servers=2, batch_size=64),
        **STRICT,
    )
    assert report.ok, report.summary()
    assert cand.processed["A"] == ref.processed["A"] > 0
    assert_no_orphans()


@pytest.mark.parametrize("policy", ["hybrid", "pkg"])
def test_mixed_source_batches_keep_load_dependent_streams_exact(policy):
    """parallelism=4 on two servers: A's shards emit batches mixing two
    source instances into a load-dependent stream, which routes each
    instance's tuples through that instance's own router. Totals stay
    exact and every holder inside the split / candidate set."""
    splits = {0: (0, 1), 3: (2, 3)}
    if policy == "hybrid":
        second = HybridTableFieldsGrouping(
            1, table=RoutingTable({k: k % 4 for k in range(6)}, splits)
        )
    else:
        second = PartialKeyGrouping(1, d=2)
    ref = run_topology(
        _two_stage(FieldsGrouping(0), second),
        "reference",
        BackendOptions(num_servers=2),
    )
    cand = run_topology(
        _two_stage(FieldsGrouping(0), second),
        "multiprocess",
        mp_options(num_servers=2, batch_size=64),
    )
    assert cand.processed == ref.processed
    assert cand.per_key_totals == ref.per_key_totals
    assert cand.key_instances["A"] == ref.key_instances["A"]
    seed = stable_hash("A->B")
    for key, holders in cand.key_instances["B"].items():
        if policy == "pkg":
            allowed = candidate_instances(key, seed, 4, 2)
        else:
            allowed = splits.get(key, ref.key_instances["B"][key])
        assert set(holders) <= set(allowed)
    assert_no_orphans()


def test_route_counters_are_per_tuple_on_every_backend():
    """fig13-quick on all three backends: ``table_hits`` and
    ``hash_fallbacks`` agree stream by stream and add up to the tuples
    routed — the scalar routers' per-select semantics, not one count
    per distinct key."""
    from repro.core import offline_tables
    from repro.workloads.flickr import FlickrConfig, FlickrWorkload

    workload = FlickrWorkload(FlickrConfig(seed=0))
    blocks = [
        [(tag, country) for tag, country in workload.pairs(400, stream_seed=i)]
        for i in range(4)
    ]
    # mined from a short sample: part of the traffic misses the tables
    tables, _ = offline_tables(workload.pairs(150, stream_seed="sample"), 4)

    def make():
        builder = TopologyBuilder()
        builder.spout(
            "S",
            lambda: IteratorSpout(lambda ctx: blocks[ctx.instance_index]),
            parallelism=4,
        )
        builder.bolt(
            "A",
            lambda: CountBolt(0, forward=True),
            parallelism=4,
            inputs={"S": TableFieldsGrouping(0, table=tables["S->A"])},
        )
        builder.bolt(
            "B",
            lambda: CountBolt(1, forward=False),
            parallelism=4,
            inputs={"A": TableFieldsGrouping(1, table=tables["A->B"])},
        )
        return builder.build()

    results = {
        backend: run_topology(make(), backend, mp_options())
        for backend in ("reference", "vectorized", "multiprocess")
    }
    ref = results["reference"].route_counts
    assert sorted(ref) == ["A->B", "S->A"]
    for name, counts in ref.items():
        consumer = name.partition("->")[2]
        assert counts["table_hits"] > 0 and counts["hash_fallbacks"] > 0
        assert (
            counts["table_hits"] + counts["hash_fallbacks"]
            == results["reference"].processed[consumer]
        )
    assert results["vectorized"].route_counts == ref
    assert results["multiprocess"].route_counts == ref
    assert_no_orphans()


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------


def _skew_topology(tuples_per_instance=500):
    config = SkewConfig(
        parallelism=4, seed=0, tuples_per_instance=tuples_per_instance
    )
    return SkewWorkload(config).topology("table")


def test_worker_crash_mid_batch_raises_structured_error():
    with pytest.raises(MultiprocessBackendError) as info:
        run_topology(
            _skew_topology(),
            "multiprocess",
            mp_options(
                mp_fault={
                    "kind": "crash",
                    "server": 1,
                    "after_tuples": 50,
                }
            ),
        )
    error = info.value
    assert error.reason == "worker-crash"
    assert error.server == 1
    assert error.exitcode not in (0, None)
    assert sorted(error.partial) == ["emitted", "finished", "results"]
    assert_no_orphans()


def test_worker_hang_hits_timeout_and_tears_down():
    with pytest.raises(MultiprocessBackendError) as info:
        run_topology(
            _skew_topology(),
            "multiprocess",
            BackendOptions(
                mp_timeout_s=3,
                mp_fault={
                    "kind": "hang",
                    "server": 0,
                    "after_tuples": 50,
                },
            ),
        )
    assert info.value.reason == "timeout"
    assert_no_orphans()


def test_queue_full_backpressure_still_equivalent():
    """Single-slot inbound queues force every sender through the
    drain-own-inbox retry path; results must not change."""
    config = SkewConfig(parallelism=4, seed=2, tuples_per_instance=300)
    report, _, _ = run_equivalence(
        lambda: SkewWorkload(config).topology("table"),
        candidate="multiprocess",
        candidate_options=mp_options(mp_queue_maxsize=1, batch_size=64),
        **STRICT,
    )
    assert report.ok, report.summary()
    assert_no_orphans()


def test_a_mid_stream_table_swap_under_single_slot_queues():
    """A scripted table swap halfway through, at ``mp_queue_maxsize=1``:
    the PROPAGATE / MIGRATE / MIG_DONE exchange, the hold and the
    plan's ``step`` / ``feed`` / ``finish`` all go through the
    blocked-send path, and the per-key totals and final placements
    still equal the vectorized run's. A marker handled inside a
    blocked send, before the rest of a half-pushed batch went out,
    would leave keys with two holders."""
    config = SkewConfig(parallelism=4, seed=2, tuples_per_instance=300)
    options = mp_options(
        num_servers=2,
        batch_size=64,
        mp_queue_maxsize=1,
        actions=[ReconfigureAction(600, "S->A", RoutingTable({}))],
    )
    vector, multi = (
        run_topology(SkewWorkload(config).topology("table"), backend, options)
        for backend in ("vectorized", "multiprocess")
    )
    assert multi.per_key_totals == vector.per_key_totals
    assert multi.key_instances == vector.key_instances
    assert sum(multi.per_key_totals["A"].values()) == 1200
    assert_no_orphans()


class KeepLocalCount(StatefulBolt):
    """Counts field 1 and keeps ``StatefulBolt``'s default keep-local
    merge: a tuple counted at a key's new owner before the key's state
    arrived is lost when the state is installed, where ``CountBolt``'s
    additive merge would hide it."""

    def process(self, tup, context):
        key = tup.values[1]
        self.state[key] = self.state.get(key, 0) + 1


@pytest.mark.parametrize(
    "queue_size, runs", [(64, 10), (1, 3)], ids=["queue64", "queue1"]
)
def test_a_bolt_forwarded_swap_holds_tuples_until_their_state_lands(
    queue_size, runs
):
    """``S(3) → A(2) → B(2)``, ``A->B`` swapped mid-stream: every
    worker swaps at its own quiescent point, so a peer's ``A`` may
    still forward under the old table while this one routes under the
    new. ``B`` ships a key's state once every server's PROPAGATE is in
    and holds the tuples that arrived ahead of it; each run's totals
    and placements equal the vectorized run's."""
    options = mp_options(
        num_servers=2,
        batch_size=64,
        mp_queue_maxsize=queue_size,
        actions=[
            ReconfigureAction(
                600,
                "A->B",
                RoutingTable({k: k % 2 for k in range(100, 112)}),
            )
        ],
    )
    vector = run_topology(
        _rescale_topology(0, sink=KeepLocalCount), "vectorized", options
    )
    assert sum(vector.per_key_totals["B"].values()) == 2400
    for _ in range(runs):
        multi = run_topology(
            _rescale_topology(0, sink=KeepLocalCount), "multiprocess", options
        )
        assert multi.per_key_totals == vector.per_key_totals
        assert multi.key_instances == vector.key_instances
        for stats in multi.measured["per_server"].values():
            timeline = stats["timeline"]
            assert timeline["reconfig_open"] <= timeline["reconfig_closed"]
    assert_no_orphans()


def test_unknown_fault_kind_is_a_worker_error():
    with pytest.raises(MultiprocessBackendError) as info:
        run_topology(
            _skew_topology(200),
            "multiprocess",
            mp_options(
                mp_fault={
                    "kind": "meteor",
                    "server": 0,
                    "after_tuples": 0,
                }
            ),
        )
    assert info.value.reason == "worker-error"
    assert_no_orphans()
