"""The batch hook and the one operator that hosts bolts for a backend.

- ``Bolt.process_batch`` is *the same function* as looping ``process``
  for every built-in bolt: state, ``processed``, emission order —
  including keys that are equal as dict keys across types
  (``1`` / ``1.0`` / ``True``);
- a subclass that redefines ``process`` alone falls back to the default
  loop instead of inheriting a batch override that no longer matches;
- :class:`~repro.engine.physical.HostedBolt` behind both fast backends
  on topologies the bincount operators never see: ``PartialCountBolt →
  SumBolt`` under PKG, a ``FunctionBolt`` fan-out, and a scripted 2→4
  rescale over ``SumBolt`` stages — after which every hosted instance,
  old or new, reports the new ``context.num_instances`` and the
  rescaled operator's side inputs route at the new width — and a
  scale-in, after which the survivors report it too;
- one rule for how many routers a stream gets
  (:class:`~repro.engine.physical.StreamRoutes`): spout-fed PKG,
  shuffle and hybrid edges decide every tuple alike on both fast
  backends, PKG and shuffle also alike with the DES; and a scripted
  scale-in reports the final width on both.
"""

import math
import multiprocessing
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Manager, ManagerConfig
from repro.core.routing_table import RoutingTable
from repro.engine import TableFieldsGrouping, TopologyBuilder, count_chain
from repro.engine.backends import (
    BackendOptions,
    ReconfigureAction,
    run_topology,
)
from repro.engine.grouping import (
    FieldsGrouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    ShuffleGrouping,
    candidate_instances,
    stable_hash,
)
from repro.engine.operators import (
    Bolt,
    CountBolt,
    FunctionBolt,
    IteratorSpout,
    OperatorContext,
    PartialCountBolt,
    PassThroughBolt,
    ShimTuple,
    StatefulBolt,
    SumBolt,
)
from repro.engine.physical import (
    HostedBolt,
    TupleBatch,
    keyed_state_summary,
)
from repro.errors import DeploymentError
from repro.testing.episode import attempt_rescale
from repro.testing.equivalence import compare_backends, run_equivalence
from repro.workloads.skew import SkewConfig, SkewWorkload

pytestmark = pytest.mark.timeout(120)

# ----------------------------------------------------------------------
# process_batch == looping process
# ----------------------------------------------------------------------

# 1 / 1.0 / True (and 0 / 0.0 / False) are one dict key
aliasing_keys = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.booleans(),
    st.sampled_from(["a", "b", ""]),
    st.none(),
)
batches = st.lists(
    st.tuples(aliasing_keys, st.integers(min_value=-3, max_value=3)),
    max_size=40,
)


def _fan(values):
    """0, 1 or 2 emissions per tuple (one of them a list: ``emit``
    converts, so must the batch form)."""
    return [[values[0], i] for i in range(values[1] % 3)]


BUILT_INS = {
    "count-forward": lambda: CountBolt(0, forward=True),
    "count-sink": lambda: CountBolt(0, forward=False),
    "count-callable-key": lambda: CountBolt(lambda v: (v[0], v[1] % 2)),
    "partial-count": lambda: PartialCountBolt(0, emit_every=2),
    "sum-forward": lambda: SumBolt(0, 1, forward=True),
    "sum-sink": lambda: SumBolt(0, 1),
    "pass-through": PassThroughBolt,
    "pass-through-transform": lambda: PassThroughBolt(
        lambda v: [v[1], v[0]]
    ),
    "function-fan-out": lambda: FunctionBolt(_fan),
}


def _observe(bolt, emitted):
    state = getattr(bolt, "state", None)
    return (
        # items in insertion order, with the first-seen key object's
        # type: what a dict that aliased differently would change
        None if state is None else [(k, type(k), v) for k, v in state.items()],
        getattr(bolt, "processed", None),
        [(values, type(values)) for values in emitted],
    )


@pytest.mark.parametrize("name", sorted(BUILT_INS))
@given(first=batches, second=batches)
@settings(max_examples=60, deadline=None)
def test_process_batch_equals_looping_process(name, first, second):
    looped, batched = BUILT_INS[name](), BUILT_INS[name]()
    loop_context = OperatorContext("op", 0, 1, 0, lambda: 0.0, 8)
    batch_context = OperatorContext("op", 0, 1, 0, lambda: 0.0, 8)
    for batch in (first, second):  # the second meets existing state
        for values in batch:
            looped.process(ShimTuple(values, 8), loop_context)
        batched.process_batch(batch, batch_context)
        assert _observe(batched, batch_context._drain()) == _observe(
            looped, loop_context._drain()
        )


# ----------------------------------------------------------------------
# Subclass safety
# ----------------------------------------------------------------------


class _DoubleCount(CountBolt):
    """Overrides ``process`` only."""

    def process(self, tup, context):
        super().process(tup, context)
        super().process(tup, context)


class _Mixin:
    def process(self, tup, context):
        self.seen = getattr(self, "seen", 0) + 1


class _MixedIn(_Mixin, SumBolt):
    """``process`` comes from a class that is no Bolt at all."""


class _FastCount(CountBolt):
    """Overrides the batch hook only: it is kept."""

    def process_batch(self, batch_values, context):
        self.batches = getattr(self, "batches", 0) + 1
        super().process_batch(batch_values, context)


def test_overriding_process_alone_restores_the_default_loop():
    assert _DoubleCount.process_batch is Bolt.process_batch
    assert _MixedIn.process_batch is Bolt.process_batch
    assert _FastCount.process_batch is not Bolt.process_batch
    # the order-sensitive pending logic stays on the per-tuple loop
    assert PartialCountBolt.process_batch is Bolt.process_batch
    for cls in (CountBolt, SumBolt, PassThroughBolt, FunctionBolt):
        assert cls.process_batch is not Bolt.process_batch

    class Grandchild(_DoubleCount):
        pass

    assert Grandchild.process_batch is Bolt.process_batch


def test_hosted_bolt_runs_a_process_only_subclass_per_tuple():
    hosted = HostedBolt("A", ["S->A"], _DoubleCount, 2, 1, header_bytes=0)
    values = [(k,) for k in (1, 2, 1, 3)]
    out = hosted.add_input(
        TupleBatch(values, dst_instances=np.array([0, 1, 0, 1]))
    )
    assert hosted.state_snapshot() == {0: {1: 4}, 1: {2: 2, 3: 2}}
    assert hosted.received == {0: 2, 1: 2}
    # grouped by emitting instance, each instance's in its own order
    assert out.values == [(1,), (1,), (1,), (1,), (2,), (2,), (3,), (3,)]
    assert out.src_instances.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    fast = HostedBolt("A", ["S->A"], _FastCount, 1, 1, header_bytes=0)
    fast.add_input(TupleBatch(values, dst_instances=np.zeros(4, dtype=int)))
    assert fast.operators[0].batches == 1
    assert fast.state_snapshot() == {0: {1: 2, 2: 1, 3: 1}}


def test_hosted_bolt_hosts_one_servers_shard_and_ships_the_rest():
    shard = HostedBolt(
        "A", ["S->A"], lambda: CountBolt(0), 4, 2, header_bytes=0, server=1
    )
    assert sorted(shard.operators) == [1, 3]
    shard.add_input(
        TupleBatch(
            [(k,) for k in range(6)],
            dst_instances=np.array([1, 3, 1, 3, 1, 3]),
        )
    )
    # keys 0..5: owner k % 4 — 1 and 3 stay, 5 moves 3 -> 1 in place,
    # 0 / 2 / 4 belong to instances of the other server
    outgoing = shard.migrate(lambda key: key % 4)
    assert outgoing == {0: {0: 1, 4: 1}, 2: {2: 1}}
    assert shard.state_snapshot() == {1: {1: 1, 5: 1}, 3: {3: 1}}
    with pytest.raises(DeploymentError, match="not hosted here"):
        shard.add_input(TupleBatch([(0,)], dst_instances=np.array([0])))

    class NotABolt:
        pass

    with pytest.raises(DeploymentError, match="not a Bolt"):
        HostedBolt("A", ["S->A"], NotABolt, 1, 1, header_bytes=0)


def test_keyed_state_summary_totals_and_holders():
    # one helper behind every backend's per_key_totals / key_instances;
    # 1 and 1.0 are one key, as in a bolt's state dict
    totals, holders = keyed_state_summary(
        [(2, {"a": 1, 1: 2}), (0, {"a": 3}), (1, {1.0: 4})]
    )
    assert totals == {"a": 4, 1: 6}
    assert holders == {"a": (0, 2), 1: (1, 2)}
    assert keyed_state_summary([]) == ({}, {})


def test_resize_tells_the_instances_already_hosted_the_new_width():
    hosted = HostedBolt("A", ["S->A"], lambda: CountBolt(0), 2, 2, 0)
    hosted.resize(4)
    widths = {i: c.num_instances for i, c in hosted.contexts.items()}
    assert widths == {0: 4, 1: 4, 2: 4, 3: 4}
    # a scale-in too, as the DES's ``set_parallelism``: the survivors
    # read the new width, not the widest one
    hosted.resize(2)
    widths = {i: c.num_instances for i, c in hosted.contexts.items()}
    assert widths == {0: 2, 1: 2, 2: 2, 3: 2}


class _WidthCountBolt(StatefulBolt):
    """Counts its tuples by the width its context reports."""

    def process(self, tup, context):
        width = context.num_instances
        self.state[width] = self.state.get(width, 0) + 1

    def merge_state_entry(self, key, mine, theirs):
        return mine + theirs


def test_a_scale_in_is_seen_by_the_bolts_that_survive_it():
    """S(2) → A(4) → 2 mid-stream: the tuples after the action are
    counted under the new width (every one under 4 before the fix)."""

    def source(ctx):
        rng = random.Random(ctx.instance_index)
        for _ in range(1000):
            yield (rng.randrange(50),)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "A", _WidthCountBolt, 4, inputs={"S": TableFieldsGrouping(0)}
    )
    options = BackendOptions(
        num_servers=2,
        batch_size=128,
        actions=[ReconfigureAction(1000, "S->A", RoutingTable({}), 2)],
    )
    result = run_topology(builder.build(), "vectorized", options)
    assert len(result.received["A"]) == 2
    # the action lands at the first step boundary past 1 000 tuples
    assert result.per_key_totals["A"] == {4: 1024, 2: 976}


def test_stateless_hosted_bolts_report_no_state():
    hosted = HostedBolt("F", ["S->F"], PassThroughBolt, 2, 2, header_bytes=0)
    assert not isinstance(hosted.operators[0], StatefulBolt)
    assert hosted.state_snapshot() == {}
    assert hosted.migrate(lambda key: 0) == {}


# ----------------------------------------------------------------------
# Both fast backends, on topologies the bincount operators never see
# ----------------------------------------------------------------------

FAST = ["vectorized", "multiprocess"]
SERVERS = 2


def _options(**kw):
    return BackendOptions(
        num_servers=SERVERS, batch_size=64, mp_timeout_s=60, **kw
    )


def _pkg_merge_topology():
    """S(2) -> F(2, fan-out) -> P(4, partial counts under PKG) -> M(4)."""

    def source(ctx):
        rng = random.Random(ctx.instance_index)
        for _ in range(400):
            # Zipf-ish: key 0 is hot enough for PKG to split it
            yield (min(rng.randrange(12), rng.randrange(12)), rng.randrange(9))

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "F",
        lambda: FunctionBolt(_fan),
        parallelism=2,
        inputs={"S": ShuffleGrouping()},
    )
    builder.bolt(
        "P",
        lambda: PartialCountBolt(0),
        parallelism=4,
        inputs={"F": PartialKeyGrouping(0, d=2)},
    )
    builder.bolt(
        "M",
        lambda: SumBolt(0, 1),
        parallelism=4,
        inputs={"P": FieldsGrouping(0)},
    )
    return builder.build()


@pytest.mark.parametrize("candidate", FAST)
def test_partial_count_merge_under_pkg_on_every_backend(candidate):
    ref = run_topology(_pkg_merge_topology(), "reference", _options())
    cand = run_topology(_pkg_merge_topology(), candidate, _options())
    report = compare_backends(
        ref,
        cand,
        exact_placements=False,  # the d-choices pick is load-dependent
        exact_received=False,
        locality_tol=1.0,
        balance_tol=1.0,
    )
    assert report.ok, report.summary()
    assert cand.processed == ref.processed
    assert ref.processed["F"] > ref.processed["P"] > 0  # fan-out drops some
    # the merge stage is exact in every respect: totals, placements,
    # per-instance load
    assert cand.per_key_totals["M"] == ref.per_key_totals["M"]
    assert cand.key_instances["M"] == ref.key_instances["M"]
    assert cand.received["M"] == ref.received["M"]
    assert cand.per_key_totals["P"] == cand.per_key_totals["M"]
    seed = stable_hash("F->P")
    split = 0
    for key, holders in cand.key_instances["P"].items():
        assert set(holders) <= set(candidate_instances(key, seed, 4, 2))
        split += len(holders) > 1
    assert split, "no key was split: the merge stage went untested"


def _fan_out_topology():
    """S(2) -> F(4, fan-out) -> A(4, sums) -> B(4, sums), deterministic
    routing end to end: strict on every tier."""

    def source(ctx):
        rng = random.Random(100 + ctx.instance_index)
        for _ in range(400):
            yield (rng.randrange(23), rng.randrange(9))

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "F",
        lambda: FunctionBolt(_fan),
        parallelism=4,
        inputs={"S": FieldsGrouping(1)},
    )
    builder.bolt(
        "A",
        lambda: SumBolt(0, 1, forward=True),
        parallelism=4,
        inputs={"F": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: SumBolt(1, 0),
        parallelism=4,
        inputs={"A": FieldsGrouping(1)},
    )
    return builder.build()


@pytest.mark.parametrize("candidate", FAST)
def test_function_bolt_fan_out_is_strictly_equivalent(candidate):
    ref = run_topology(_fan_out_topology(), "reference", _options())
    cand = run_topology(_fan_out_topology(), candidate, _options())
    report = compare_backends(
        ref, cand, locality_tol=1e-9, balance_tol=1e-9
    )
    assert report.ok, report.summary()
    assert ref.processed["A"] == ref.processed["B"] > 0
    # operator time is recorded by the base class on every backend
    for op in ("S", "F", "A", "B"):
        assert cand.op_stats[op]["busy_s"] > 0


def _list_rows_topology():
    """S(2, yields *lists*) -> P(2, identity) -> T(2, tags the row type
    it was handed) -> C(2, counts the tags)."""

    def source(ctx):
        for i in range(100):
            yield [i % 7, ctx.instance_index]

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "P",
        PassThroughBolt,
        parallelism=2,
        inputs={"S": FieldsGrouping(0)},
    )
    builder.bolt(
        "T",
        lambda: FunctionBolt(lambda row: [(type(row).__name__,)]),
        parallelism=2,
        inputs={"P": FieldsGrouping(0)},
    )
    builder.bolt(
        "C",
        # an index that is an integer, though not an ``int``
        lambda: CountBolt(np.int64(0), forward=False),
        parallelism=2,
        inputs={"T": FieldsGrouping(0)},
    )
    return builder.build()


@pytest.mark.parametrize("backend", ["reference"] + FAST)
def test_rows_are_tuples_downstream_of_a_spout_yielding_lists(backend):
    """``emit`` makes every row a tuple on the DES; the batch path
    (``emit_many`` does not convert) owes the same at the source."""
    result = run_topology(_list_rows_topology(), backend, _options())
    assert result.per_key_totals["C"] == {"tuple": 200}


def _sum_rescale_topology(width=2, tuples_per_instance=800):
    def source(ctx):
        rng = random.Random(7 + ctx.instance_index)
        for _ in range(tuples_per_instance):
            a = rng.randrange(12)
            yield (a, a + 100, rng.randrange(1, 4))

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=3)
    builder.bolt(
        "A",
        lambda: SumBolt(0, 2, forward=True),
        parallelism=width,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: SumBolt(1, 2),
        parallelism=width,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


@pytest.mark.parametrize("candidate", FAST)
def test_scripted_rescale_2_to_4_through_hosted_bolts(candidate):
    """The DES manager's 2→4 rescale, replayed at the tuple offset of
    the DES's first spout swap: resize spawns the new instances,
    migrate moves every key's sum to its owner (across workers on
    multiprocess), and everything matches the DES exactly."""
    after = 4

    def attach_manager(deployment):
        manager = Manager(deployment, ManagerConfig(period_s=None))
        sim = deployment.sim
        sim.schedule(0.02, attempt_rescale, sim, manager, after, math.inf)

    options = BackendOptions(
        num_servers=after, on_deployed=attach_manager, mp_timeout_s=60
    )
    report, ref, cand = run_equivalence(
        _sum_rescale_topology,
        reference_options=options,
        candidate=candidate,
        candidate_options=options,
    )
    assert report.ok, report.summary()
    assert len(cand.received["A"]) == len(cand.received["B"]) == after
    placed = {i for held in cand.key_instances["A"].values() for i in held}
    assert placed - {0, 1}, "no key moved to a new instance"


class _WidthProbe(Bolt):
    """Emits ``10 * instance + context.num_instances`` for every tuple."""

    def process(self, tup, context):
        context.emit([10 * context.instance_index + context.num_instances])


@pytest.mark.parametrize("backend", ["reference"] + FAST)
def test_num_instances_is_truthful_after_a_rescale(backend):
    """2 → 4 mid-stream: the instances that were there before the
    rescale see ``num_instances == 4`` afterwards, like the spawned
    ones (the DES drops its cached context in ``set_parallelism``;
    ``HostedBolt.resize`` updates the contexts it keeps)."""
    per_instance, spouts, at_tuples, batch_size = 6000, 3, 600, 64

    def source(ctx):
        rng = random.Random(7 + ctx.instance_index)
        for _ in range(per_instance):
            yield (rng.randrange(12),)

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=spouts)
    builder.bolt(
        "A", _WidthProbe, parallelism=2, inputs={"S": TableFieldsGrouping(0)}
    )
    builder.bolt(
        "B",
        lambda: CountBolt(0),
        parallelism=2,
        inputs={"A": TableFieldsGrouping(0)},
    )

    def attach_manager(deployment):
        manager = Manager(deployment, ManagerConfig(period_s=None))
        deployment.sim.schedule(0.02, manager.rescale, 4)

    if backend == "reference":
        options = BackendOptions(num_servers=4, on_deployed=attach_manager)
    else:
        options = BackendOptions(
            num_servers=4,
            batch_size=batch_size,
            mp_timeout_s=60,
            actions=[
                ReconfigureAction(at_tuples, stream, None, 4)
                for stream in ("S->A", "A->B")
            ],
        )
    seen = run_topology(builder.build(), backend, options).per_key_totals["B"]
    assert sum(seen.values()) == spouts * per_instance
    assert {4, 14} <= set(seen), "instances 0 / 1 never saw the new width"
    if backend == "reference":
        return  # spawned instances read the old width until the commit
    assert set(seen) <= {2, 12, 4, 14, 24, 34}
    if backend == "vectorized":  # applied at a known batch boundary
        assert seen[2] + seen[12] <= at_tuples + spouts * batch_size


class _WhoGotIt(Bolt):
    """Emits ``"instance/tag"`` for every tuple: who processed what."""

    def process(self, tup, context):
        context.emit([f"{context.instance_index}/{tup.values[1]}"])


def _side_input_topology(side, per_spout):
    """``S1 -table-> B`` and ``S2 -side-> B``; C counts who got what."""

    def source(tag):
        def values(ctx):
            rng = random.Random(f"{tag}{ctx.instance_index}")
            for _ in range(per_spout):
                yield (f"{tag}-{rng.randrange(40)}", tag)

        return lambda: IteratorSpout(values)

    builder = TopologyBuilder()
    builder.spout("S1", source("s1"), parallelism=2)
    builder.spout("S2", source("s2"), parallelism=2)
    builder.bolt(
        "B",
        _WhoGotIt,
        parallelism=2,
        inputs={"S1": TableFieldsGrouping(0), "S2": side},
    )
    builder.bolt(
        "C", lambda: CountBolt(0), parallelism=2,
        inputs={"B": FieldsGrouping(0)},
    )
    return builder.build()


@pytest.mark.parametrize("candidate", FAST)
def test_a_scripted_rescale_widens_the_side_inputs_too(candidate):
    """B rescales 2 → 4 through an action on ``S1->B``: ``S2->B`` must
    follow the new width, as the DES round resizes side inputs, so the
    new instances get S2 traffic too and no tuple is lost."""
    per_spout = 800
    result = run_topology(
        _side_input_topology(FieldsGrouping(0), per_spout),
        candidate,
        BackendOptions(
            num_servers=4,
            batch_size=64,
            mp_timeout_s=60,
            actions=[ReconfigureAction(400, "S1->B", None, 4)],
        ),
    )
    seen = result.per_key_totals["C"]
    assert sum(seen.values()) == 4 * per_spout
    assert seen.get("2/s2", 0) + seen.get("3/s2", 0) > 0, seen
    assert seen.get("2/s1", 0) + seen.get("3/s1", 0) > 0, seen


def test_a_side_input_that_cannot_be_resized_is_refused():
    """Local-or-shuffle has no resize seam: rescaling its destination
    is refused, naming the stream."""
    with pytest.raises(DeploymentError, match="S2->B"):
        run_topology(
            _side_input_topology(LocalOrShuffleGrouping(), 200),
            "multiprocess",
            BackendOptions(
                num_servers=2,
                batch_size=64,
                mp_timeout_s=60,
                actions=[ReconfigureAction(100, "S1->B", None, 4)],
            ),
        )
    assert not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-mp-worker")
    ]


# ----------------------------------------------------------------------
# One rule for how many routers a stream gets
# ----------------------------------------------------------------------


def _skewed_star(grouping):
    """S(3) -> CountBolt(4) under ``grouping``, over a skewed key
    stream (small keys hot)."""

    def source(ctx):
        rng = random.Random(10 + ctx.instance_index)
        for _ in range(1500):
            yield (min(rng.randrange(40), rng.randrange(40)),)

    def build():
        builder = TopologyBuilder()
        builder.spout("S", lambda: IteratorSpout(source), parallelism=3)
        builder.bolt(
            "A",
            lambda: CountBolt(0, forward=False),
            parallelism=4,
            inputs={"S": grouping()},
        )
        return builder.build()

    return build


SPOUT_FED = {
    "pkg": _skewed_star(lambda: PartialKeyGrouping(0)),
    "shuffle": _skewed_star(ShuffleGrouping),
    "hybrid": lambda: SkewWorkload(
        SkewConfig(parallelism=4, seed=0, tuples_per_instance=500)
    ).topology("hybrid"),
}


@pytest.mark.parametrize("policy", sorted(SPOUT_FED))
def test_spout_fed_load_dependent_edges_route_alike_on_every_backend(policy):
    """A load-dependent or stateful policy gets one router per source
    instance on every backend, so a spout-fed edge — each source's
    tuples reach its router in the same order — makes the same
    decisions on both fast backends, exactly. PKG and shuffle picks are
    the DES's too; a hybrid router credits tail traffic per batch on
    the fast backends and per tuple on the DES, so that pair is held
    to the containment tier only (``exact_placements=False``)."""
    options = BackendOptions(num_servers=2, batch_size=256, mp_timeout_s=60)
    results = {
        backend: run_topology(SPOUT_FED[policy](), backend, options)
        for backend in ["reference"] + FAST
    }
    report = compare_backends(
        results["multiprocess"],
        results["vectorized"],
        locality_tol=0,
        balance_tol=0,
    )
    assert report.ok, report.summary()
    if policy != "shuffle":
        holders = results["vectorized"].key_instances["A"].values()
        assert any(len(h) > 1 for h in holders), "no load-dependent pick"
    if policy == "hybrid":
        return
    for candidate in FAST:
        report = compare_backends(
            results["reference"],
            results[candidate],
            locality_tol=0,
            balance_tol=0,
        )
        assert report.ok, f"{candidate}: {report.summary()}"


def test_a_scripted_scale_in_reports_the_final_width_on_both_backends():
    """4 → 2 after the last tuple: the retired instances' receipts are
    dropped, as the DES drops them, on both fast backends alike."""

    def source(ctx):
        rng = random.Random(ctx.instance_index)
        for _ in range(1000):
            yield (rng.randrange(50), rng.randrange(50))

    def chain():
        return count_chain(
            source,
            4,
            [TableFieldsGrouping(0), TableFieldsGrouping(1)],
            spouts=2,
        )

    options = BackendOptions(
        num_servers=4,
        batch_size=128,
        mp_timeout_s=60,
        actions=[ReconfigureAction(2000, "S->A", RoutingTable({}), 2)],
    )
    vector, multi = (
        run_topology(chain(), backend, options) for backend in FAST
    )
    assert len(vector.received["A"]) == len(multi.received["A"]) == 2
    assert multi.received == vector.received
    assert multi.load_balance == vector.load_balance
