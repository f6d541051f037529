"""Contract tests for the PhysicalOperator seam (DESIGN.md §15).

The seam is what makes backends pluggable, so its lifecycle rules are
pinned independently of any backend: stats accounting in the base
class, ``add_input`` returning what an operator emits, completion once
every input is done, input-after-done rejection, the plan's quiescent
``on_round`` hook, the entry points a multiprocess worker drives its
plan through (``step`` / ``feed`` / ``finish``, an edge's ``deliver`` /
``producer_done``), a consumer's hold across a reconfiguration
(``HostedBolt.hold``, ``PhysicalPlan.release``) and the one merge of
per-plan counters (``merge_counts``).
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import CountBolt
from repro.engine.physical import (
    HostedBolt,
    OpStats,
    PhysicalEdge,
    PhysicalOperator,
    PhysicalPlan,
    SourceOperator,
    TupleBatch,
    keyed_state_summary,
    merge_counts,
)
from repro.errors import DeploymentError


class ListSource(SourceOperator):
    """Source producing one fixed batch per poll."""

    def __init__(self, name, batches):
        super().__init__(name)
        self._batches = list(batches)

    def _poll(self):
        if not self._batches:
            return None
        return self._batches.pop(0)


class Passthrough(PhysicalOperator):
    def _process(self, batch, input_index):
        return batch


class HoldAll(PhysicalOperator):
    """A sink: keeps every value it takes, emits nothing."""

    def __init__(self, name, input_names):
        super().__init__(name, input_names)
        self.held = []

    def _process(self, batch, input_index):
        self.held.extend(batch.values)


class CountsDone(HoldAll):
    done_calls = 0

    def input_done(self, input_index=0):
        self.done_calls += 1
        super().input_done(input_index)


def _batch(*values):
    return TupleBatch([(v,) for v in values])


class TestOperatorLifecycle:
    def test_stats_track_batches_and_tuples(self):
        op = Passthrough("p", ["in"])
        out = op.add_input(_batch(1, 2, 3))
        assert op.stats.batches_in == 1
        assert op.stats.tuples_in == 3
        assert len(out) == 3
        assert op.stats.batches_out == 1
        assert op.stats.tuples_out == 3
        assert HoldAll("h", ["in"]).add_input(_batch(1)) is None

    def test_busy_seconds_cover_process_and_poll_only(self):
        """``busy_s`` is kept by the base class, around ``_process`` /
        ``_poll``: no operator times itself, and what happens to a
        batch after it left the operator is not operator time."""
        import time

        class Slow(Passthrough):
            def _process(self, batch, input_index):
                time.sleep(0.02)
                return super()._process(batch, input_index)

        class SlowSource(ListSource):
            def _poll(self):
                time.sleep(0.02)
                return super()._poll()

        op = Slow("p", ["in"])
        op.add_input(_batch(1))
        op.add_input(_batch(2))
        busy = op.stats.busy_s
        assert busy >= 0.04
        op.input_done(0)
        assert op.stats.busy_s == busy
        src = SlowSource("s", [_batch(1)])
        src.poll()
        src.poll()  # the poll that finds it dry counts too
        busy = src.stats.busy_s
        assert busy >= 0.04
        src.poll()  # dry: not polled again
        assert src.stats.busy_s == busy

    def test_completed_means_every_input_done(self):
        op = Passthrough("p", ["a", "b"])
        op.add_input(_batch(1), 0)
        assert not op.completed
        op.input_done(0)
        assert not op.completed  # input b still open
        op.add_input(_batch(2), 1)
        op.input_done(1)
        assert op.completed

    def test_input_after_done_rejected(self):
        op = Passthrough("p", ["in"])
        op.input_done(0)
        with pytest.raises(DeploymentError):
            op.add_input(_batch(1))

    def test_source_exhaustion_flips_once(self):
        src = ListSource("s", [_batch(1)])
        first = src.poll()
        assert first is not None and src.stats.tuples_out == 1
        assert not src.completed
        assert src.poll() is None
        assert src.completed
        assert src.poll() is None  # stays dry

    def test_source_rejects_input(self):
        src = ListSource("s", [])
        with pytest.raises(DeploymentError):
            src.add_input(_batch(1))


class TestPlanDriver:
    def _linear_plan(self, batches):
        src = ListSource("s", batches)
        mid = Passthrough("mid", ["s"])
        sink = HoldAll("sink", ["mid"])
        plan = PhysicalPlan(
            [src, mid, sink],
            [
                PhysicalEdge("s->mid", src, mid, 0),
                PhysicalEdge("mid->sink", mid, sink, 0),
            ],
        )
        return plan, sink

    def test_execute_drains_and_completes(self):
        plan, sink = self._linear_plan([_batch(1, 2), _batch(3)])
        plan.execute()
        assert sink.held == [(1,), (2,), (3,)]
        assert all(op.completed for op in plan.operators)

    def test_edge_transform_applies_per_batch(self):
        """An edge's ``deliver`` turns each batch crossing it into what
        its consumer takes (a backend routes there)."""
        src = ListSource("s", [_batch(1, 2)])
        sink = HoldAll("sink", ["s"])
        doubled = []

        class Doubling(PhysicalEdge):
            def deliver(self, batch):
                doubled.append(len(batch))
                return TupleBatch([(v[0] * 2,) for v in batch.values])

        plan = PhysicalPlan([src, sink], [Doubling("e", src, sink, 0)])
        plan.execute()
        assert sink.held == [(2,), (4,)]
        assert doubled == [2]

    def test_consumer_flushes_only_once_the_edge_is_finished(self):
        """Fan-in from elsewhere (a multiprocess worker's peers): the
        edge is done once a second producer has declared too, so the
        local source running dry does not complete the consumer —
        :meth:`PhysicalPlan.finish` does, after the other producer's
        batches came in through :meth:`PhysicalPlan.feed`."""

        class TwoProducers(PhysicalEdge):
            declared = 0

            def declare(self):
                self.declared += 1
                return self.declared == 2

            def producer_done(self):
                return self.declare()

        src = ListSource("s", [_batch(1), _batch(2)])
        sink = HoldAll("sink", ["s"])
        edge = TwoProducers("e", src, sink, 0)
        plan = PhysicalPlan([src, sink], [edge])
        while plan.step():
            pass
        assert src.completed and edge.declared == 1
        plan.feed(edge, _batch(3))  # the other producer's last batch
        assert not sink.completed and not plan.completed
        assert edge.declare()  # ... and its declaration
        plan.finish(edge)
        assert sink.held == [(1,), (2,), (3,)]
        assert sink.completed and plan.completed

    def test_feed_into_a_mid_plan_consumer_pushes_its_output_on(self):
        plan, sink = self._linear_plan([_batch(1)])
        plan.feed(plan.edges_by_stream["s->mid"], _batch(7, 8))
        assert sink.held == [(7,), (8,)]
        plan.execute()
        assert sink.held == [(7,), (8,), (1,)]

    def test_on_round_fires_at_quiescent_points(self):
        plan, sink = self._linear_plan([_batch(1), _batch(2), _batch(3)])
        seen = []
        plan.execute(
            on_round=lambda p: seen.append(
                sum(s.stats.tuples_out for s in p.sources())
            )
        )
        # one round per poll pass (3 batches + the exhausting pass)
        assert seen == [1, 2, 3, 3]

    def test_incomplete_operator_raises(self):
        src = ListSource("s", [])

        class NeverDone(HoldAll):
            def input_done(self, input_index=0):
                pass  # deliberately breaks protocol: records nothing

        sink = NeverDone("bad", ["s"])
        plan = PhysicalPlan([src, sink], [PhysicalEdge("e", src, sink, 0)])
        with pytest.raises(DeploymentError, match="incomplete"):
            plan.execute()

    def test_multi_input_fan_in(self):
        left = ListSource("l", [_batch(1)])
        right = ListSource("r", [_batch(2), _batch(3)])
        sink = HoldAll("sink", ["l", "r"])
        plan = PhysicalPlan(
            [left, right, sink],
            [
                PhysicalEdge("l->sink", left, sink, 0),
                PhysicalEdge("r->sink", right, sink, 1),
            ],
        )
        plan.execute()
        assert sorted(sink.held) == [(1,), (2,), (3,)]
        assert sink.stats.batches_in == 3


def _parity_before():
    """Before the swap, key k lived on instance k % 2."""
    return [lambda values: np.array([v[0] % 2 for v in values])]


#: (keys, dst): 1, 5 and 7 moved to instance 0, so the hold keeps them
_SWAPPED = (([1, 2, 3], [0, 0, 1]), ([5, 4], [0, 0]), ([7], [0]))


def _routed(keys, dst):
    return TupleBatch([(k,) for k in keys], dst_instances=np.array(dst))


class TestTheHold:
    """The consumer's half of an in-band reconfiguration: after a swap,
    a tuple whose key another instance owned before it waits for that
    key's state, until :meth:`PhysicalPlan.release`."""

    def _plan(self, forward):
        src = ListSource("s", [])
        bolt = HostedBolt(
            "b", ["s"], lambda: CountBolt(0, forward=forward), 2, 1, 0
        )
        sink = CountsDone("sink", ["b"])
        into = PhysicalEdge("s->b", src, bolt, 0)
        plan = PhysicalPlan(
            [src, bolt, sink], [into, PhysicalEdge("b->sink", bolt, sink, 0)]
        )
        bolt.hold(_parity_before())
        for keys, dst in _SWAPPED[:2]:
            plan.feed(into, _routed(keys, dst))
        return plan, bolt, sink

    def test_held_tuples_wait_then_run_in_order_and_cascade_once(self):
        plan, bolt, sink = self._plan(forward=True)
        # unchanged owners went straight through; 1 and 5 moved to 0
        assert sink.held == [(2,), (3,), (4,)]
        assert bolt.held_tuples == 2
        assert bolt.operators[0].state == {2: 1, 4: 1}
        while plan.step():
            pass
        assert not bolt.completed and sink.done_calls == 0
        plan.release(bolt)
        assert sink.held == [(2,), (3,), (4,), (1,), (5,)]
        assert bolt.operators[0].state == {1: 1, 2: 1, 4: 1, 5: 1}
        assert bolt.completed and plan.completed
        assert sink.done_calls == 1
        plan.release(bolt)  # nothing held: no second cascade
        assert sink.done_calls == 1

    def test_a_release_that_emits_nothing_still_cascades_once(self):
        """A non-forwarding bolt's held tuples emit nothing, yet they
        kept it incomplete: its release completes it, and only that
        release cascades ``input_done``."""
        plan, bolt, sink = self._plan(forward=False)
        while plan.step():
            pass
        assert not bolt.completed and sink.done_calls == 0
        plan.release(bolt)
        assert sink.held == []
        assert bolt.operators[0].state == {1: 1, 2: 1, 4: 1, 5: 1}
        assert bolt.completed and plan.completed
        assert sink.done_calls == 1
        plan.release(bolt)
        assert sink.done_calls == 1

    @pytest.mark.parametrize("forward", [False, True])
    def test_out_stats_count_what_add_input_and_release_returned(
        self, forward
    ):
        bolt = HostedBolt(
            "b", ["s"], lambda: CountBolt(0, forward=forward), 2, 1, 0
        )
        bolt.hold(_parity_before())
        returned = [bolt.add_input(_routed(*batch)) for batch in _SWAPPED]
        assert returned[2] is None  # all of it held
        returned = [b for b in returned if b is not None] + bolt.release()
        assert bolt.stats.batches_out == len(returned)
        assert bolt.stats.tuples_out == sum(map(len, returned))
        assert bolt.stats.tuples_out == (6 if forward else 0)


class TestMergeOpStats:
    """The sharded-stats contract (multiprocess backend): OpStats is
    plain unsynchronized state, so every shard keeps its own and the
    coordinator sums their plain-dict forms with merge_counts — no
    double-count, no loss, even when some shards never report (early
    termination)."""

    def test_merge_sums_every_field(self):
        first = OpStats(batches_in=1, tuples_in=10, busy_s=0.5)
        second = OpStats(batches_in=2, tuples_in=20, busy_s=0.25)
        merged = merge_counts(
            [
                {"A": asdict(first)},
                {"A": asdict(second)},
                {"B": {"table_hits": 7, "hash_fallbacks": 1}},
                {"B": {"table_hits": 2, "hash_fallbacks": 0}},
            ]
        )
        assert merged["A"] == asdict(
            OpStats(batches_in=3, tuples_in=30, busy_s=0.75)
        )
        assert type(merged["A"]["tuples_in"]) is int  # counters stay ints
        assert merged["B"] == {"table_hits": 9, "hash_fallbacks": 1}

    def test_merge_does_not_mutate_shards(self):
        # aliasing a shard's dict into the result would double-count
        # on the next aggregation of the same shard list
        shard = {"A": {"tuples_in": 5}}
        merged = merge_counts([shard, shard])
        assert merged["A"] is not shard["A"]
        assert merged == {"A": {"tuples_in": 10}}
        assert shard == {"A": {"tuples_in": 5}}

    def test_missing_shards_lose_nothing_present(self):
        # early termination: only one worker reported — the merge is
        # exactly that worker's stats, not zeros
        merged = merge_counts([{}, {"A": {"tuples_in": 3}}])
        assert merged == {"A": {"tuples_in": 3}}


def test_engine_imports_and_runs_the_des_without_numpy():
    """numpy is a dependency of the batch backends only (pyproject's
    optional ``batch`` extra): ``repro.engine`` — this seam included —
    must import and run a DES topology with numpy unimportable, and its
    routers must swap tables and widths without the batch state of
    ``route``."""
    import os
    import subprocess
    import sys
    import textwrap

    import repro

    script = textwrap.dedent(
        """
        import sys
        sys.modules["numpy"] = None  # any 'import numpy' now raises
        from repro.engine import (
            Cluster, CountBolt, Simulator, TopologyBuilder, deploy,
        )
        from repro.engine.grouping import (
            FieldsGrouping, HybridTableFieldsGrouping, PartialKeyGrouping,
        )
        from repro.engine.operators import IteratorSpout

        builder = TopologyBuilder()
        builder.spout("S", lambda: IteratorSpout(lambda ctx: [(1,), (2,), (1,)]), 1)
        groupings = {"A": FieldsGrouping(0), "B": PartialKeyGrouping(0),
                     "C": HybridTableFieldsGrouping(0)}
        for name, grouping in groupings.items():
            builder.bolt(name, lambda: CountBolt(0, forward=False), 2,
                         inputs={"S": grouping})
        sim = Simulator()
        deployment = deploy(sim, Cluster(sim, 2), builder.build())
        deployment.start()
        sim.run()
        for name in groupings:
            assert deployment.metrics.processed_total(name) == 3
        for edge in deployment.executors["S"][0].out_edges:
            if hasattr(edge.router, "update_table"):
                edge.router.update_table(None)
                edge.router.resize(3, None)
            else:
                edge.router.resize(3)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# keyed_state_summary: the disjoint-keys fast path is the plain loop
# ----------------------------------------------------------------------


def _summary_by_the_plain_loop(states):
    totals, holders = {}, {}
    for instance, state in states:
        for key, value in state.items():
            totals[key] = totals.get(key, 0) + value
            holders.setdefault(key, []).append(instance)
    return totals, {k: tuple(sorted(held)) for k, held in holders.items()}


#: a small pool, so instances overlap (PKG partials) as often as not,
#: with keys that alias as dict keys: 1 == 1.0 == True, 0 == False
_state_keys = st.sampled_from(
    [0, 1, 2, 3, 1.0, True, False, 2.5, "a", "b", "1", None, (1, "a")]
)


@given(
    states=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.dictionaries(_state_keys, st.integers(1, 50), max_size=8),
        ),
        max_size=8,
    )
)
@settings(max_examples=300, deadline=None)
def test_keyed_state_summary_matches_the_plain_loop(states):
    """Instances arrive in any order (a multiprocess run lists them
    server by server) and may repeat; holders come out sorted, totals
    summed, both keyed by the first spelling of an aliasing key and in
    first-seen order."""
    given_states = [(i, dict(state)) for i, state in states]
    totals, holders = keyed_state_summary(states)
    want_totals, want_holders = _summary_by_the_plain_loop(states)
    assert totals == want_totals and holders == want_holders
    assert list(map(repr, totals)) == list(map(repr, want_totals))
    assert list(map(repr, holders)) == list(map(repr, want_holders))
    assert states == given_states  # read, not consumed


def test_keyed_state_summary_disjoint_and_overlapping():
    disjoint = [(1, {"a": 2, "b": 1}), (0, {"c": 5})]
    assert keyed_state_summary(disjoint) == (
        {"a": 2, "b": 1, "c": 5},
        {"a": (1,), "b": (1,), "c": (0,)},
    )
    partials = [(2, {"hot": 3, "x": 1}), (0, {"hot": 4}), (1, {"hot": 1})]
    assert keyed_state_summary(partials) == (
        {"hot": 8, "x": 1},
        {"hot": (0, 1, 2), "x": (2,)},
    )
    assert keyed_state_summary([]) == ({}, {})
