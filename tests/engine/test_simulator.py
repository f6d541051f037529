"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.errors import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_cancel():
    sim = Simulator()
    ran = []
    event = sim.schedule(1.0, ran.append, "x")
    event.cancel()
    sim.schedule(2.0, ran.append, "y")
    sim.run()
    assert ran == ["y"]


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    ran = []
    sim.schedule(1.0, ran.append, 1)
    sim.schedule(5.0, ran.append, 5)
    executed = sim.run(until=3.0)
    assert executed == 1
    assert ran == [1]
    assert sim.now == 3.0
    sim.run()
    assert ran == [1, 5]


def test_run_max_events():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending_events == 6


def test_step():
    sim = Simulator()
    ran = []
    sim.schedule(1.0, ran.append, 1)
    assert sim.step() is True
    assert ran == [1]
    assert sim.step() is False


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    ran = []

    def chain(depth):
        ran.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert ran == [0, 1, 2, 3]
    assert sim.now == 3.0


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
@settings(max_examples=100, deadline=None)
def test_clock_is_monotone(delays):
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


def test_daemon_events_do_not_keep_a_drain_alive():
    """A self-rescheduling daemon probe must not make run() (no until)
    run forever — it stops once only daemon events remain."""
    sim = Simulator()
    ticks = []

    def probe():
        ticks.append(sim.now)
        sim.schedule(1.0, probe, daemon=True)

    sim.schedule(1.0, probe, daemon=True)
    sim.schedule(3.5, lambda: None)  # the only real work
    sim.run()
    assert sim.now == 3.5
    assert ticks == [1.0, 2.0, 3.0]


def test_daemon_events_run_within_a_bounded_run():
    sim = Simulator()
    ticks = []
    sim.schedule(1.0, lambda: ticks.append("d"), daemon=True)
    sim.run(until=2.0)
    assert ticks == ["d"]


def test_cancelled_event_does_not_block_daemon_drain():
    sim = Simulator()
    event = sim.schedule(5.0, lambda: None)
    sim.schedule(1.0, lambda: None, daemon=True)
    event.cancel()
    sim.run()
    assert sim.now <= 5.0


def test_pending_events_counts_eagerly_on_cancel():
    """pending_events is O(1) (live counters, not a heap scan) and a
    cancel is reflected immediately, before the lazy heap pop."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending_events == 5
    events[2].cancel()
    events[4].cancel()
    assert sim.pending_events == 3
    events[2].cancel()  # idempotent: counted once
    assert sim.pending_events == 3
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_is_a_noop():
    """Callers may hold on to a timer and cancel it after it fired
    (the acker and manager do); a late cancel must not corrupt the
    pending-event counters."""
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert sim.pending_events == 1
    fired.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_pending_events_matches_heap_during_mixed_run():
    """Counter consistency under interleaved schedule/cancel/step: the
    O(1) count always equals a brute-force scan of the heap."""
    import random

    rng = random.Random(11)
    sim = Simulator()
    live = []
    for round_no in range(40):
        for _ in range(rng.randrange(4)):
            live.append(sim.schedule(rng.random() * 5.0, lambda: None))
        if live and rng.random() < 0.5:
            live.pop(rng.randrange(len(live))).cancel()
        sim.step()
        brute = sum(1 for *_, e in sim._heap if not (e and e.cancelled))
        assert sim.pending_events == brute


# ----------------------------------------------------------------------
# The two scheduling entry points: post() is schedule() minus the handle
# ----------------------------------------------------------------------

_KINDS = ("handle", "post", "daemon")
_child = st.tuples(st.floats(min_value=0.0, max_value=2.0), st.sampled_from(_KINDS))
_ops = st.one_of(
    st.tuples(
        st.just("add"),
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from(_KINDS),
        st.booleans(),  # absolute time (schedule_at / post_at)?
        st.lists(_child, max_size=2),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("run")),
    st.tuples(st.just("until"), st.floats(min_value=0.0, max_value=3.0)),
    st.tuples(st.just("max"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("step")),
)


class _Player:
    """Plays a script on one simulator. ``posts=False`` is the twin
    that uses ``schedule`` / ``schedule_at`` for everything."""

    def __init__(self, posts):
        self.sim = Simulator()
        self.sim.enable_fingerprint()
        self.posts = posts
        self.handles = []
        self.log = []

    def add(self, delay, kind, absolute, children, label):
        sim = self.sim
        when = sim.now + delay if absolute else delay
        if kind == "post" and self.posts:
            post = sim.post_at if absolute else sim.post
            assert post(when, self.fire, label, children) is None
            return
        schedule = sim.schedule_at if absolute else sim.schedule
        handle = schedule(
            when, self.fire, label, children, daemon=kind == "daemon"
        )
        if kind != "post":  # the twin never cancels what was posted
            self.handles.append(handle)

    def fire(self, label, children):
        self.log.append((self.sim.now, label))
        for index, (delay, kind) in enumerate(children):
            self.add(delay, kind, False, (), f"{label}.{index}")

    def play(self, number, op):
        sim = self.sim
        result = None
        if op[0] == "add":
            self.add(*op[1:], label=str(number))
        elif op[0] == "cancel":
            if self.handles:  # fired or not, cancelled already or not
                self.handles[op[1] % len(self.handles)].cancel()
        elif op[0] == "run":
            result = sim.run()
        elif op[0] == "until":
            result = sim.run(until=sim.now + op[1])
        elif op[0] == "max":
            result = sim.run(max_events=op[1])
        else:
            result = sim.step()
        return (
            result,
            list(self.log),
            sim.now,
            sim.events_executed,
            sim.pending_events,
            sim.fingerprint,
        )


@given(script=st.lists(_ops, max_size=40))
@settings(max_examples=200, deadline=None)
def test_posted_events_are_scheduled_events_without_a_handle(script):
    """Same order, clock, counters and fingerprint at every stop as a
    twin that builds a cancellable Event for every entry."""
    real, twin = _Player(posts=True), _Player(posts=False)
    for number, op in enumerate(script):
        assert real.play(number, op) == twin.play(number, op)
    assert real.play(-1, ("until", 10.0)) == twin.play(-1, ("until", 10.0))
    assert real.sim.pending_events == 0


def test_post_rejects_the_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-0.1, lambda: None)
    sim.post(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(4.0, lambda: None)


def test_interceptor_sees_both_kinds_of_event():
    sim = Simulator()
    seen, ran = [], []

    def hook(event):
        seen.append((event.time, event.fn, event.args, sim.now))
        return True

    sim.interceptor = hook
    sim.schedule(1.0, ran.append, "handle")
    sim.post(2.0, ran.append, "post")
    sim.post_at(3.0, ran.append, "post_at")
    sim.run()
    assert ran == ["handle", "post", "post_at"]
    assert seen == [
        (1.0, ran.append, ("handle",), 1.0),
        (2.0, ran.append, ("post",), 2.0),
        (3.0, ran.append, ("post_at",), 3.0),
    ]
    assert sim.intercepted == 0


def test_interceptor_consumes_and_reschedules_posted_events():
    sim = Simulator()
    ran = []
    deferred = []

    def hook(event):
        if event.args == ("drop",):
            return False
        if event.args == ("defer",) and not deferred:
            deferred.append(event.time)
            sim.schedule(1.0, event.fn, *event.args)
            return False
        return True

    sim.interceptor = hook
    sim.post(1.0, ran.append, "drop")
    sim.post(2.0, ran.append, "defer")
    sim.post(2.5, ran.append, "keep")
    assert sim.run() == 2
    assert ran == ["keep", "defer"]
    assert deferred == [2.0] and sim.now == 3.0
    assert sim.intercepted == 2
    assert sim.events_executed == 2
    assert sim.pending_events == 0


def test_data_plane_builds_no_event_and_plans_no_empty_emission(monkeypatch):
    """A Fig. 13-style run with no message timeout and no interceptor:
    every data-plane entry is posted (the loop built two ``Event``s per
    tuple before), and the sink, which emits nothing, never enters
    ``_plan_emissions``."""
    import repro.engine.simulator as simulator_mod
    from repro.engine import Cluster, deploy
    from repro.engine.executor import BaseExecutor
    from repro.workloads import FlickrConfig, FlickrWorkload

    built = []

    class CountedEvent(simulator_mod.Event):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[2])
            super().__init__(*args, **kwargs)

    planned = []
    real_plan = BaseExecutor._plan_emissions

    def counting_plan(self, emissions, root_id):
        planned.append(self.op_name)
        return real_plan(self, emissions, root_id)

    monkeypatch.setattr(simulator_mod, "Event", CountedEvent)
    monkeypatch.setattr(BaseExecutor, "_plan_emissions", counting_plan)
    workload = FlickrWorkload(FlickrConfig(seed=1, num_tags=200))
    sim = Simulator()
    deployment = deploy(
        sim,
        Cluster(sim, 3, bandwidth_gbps=1.0),
        workload.topology(3, padding=4000, tuples_per_instance=200),
    )
    deployment.start()
    sim.run()
    assert deployment.metrics.processed_total("B") == 600
    assert sim.events_executed > 1200
    assert built == []
    assert planned.count("S") == planned.count("A") == 600
    assert "B" not in planned
