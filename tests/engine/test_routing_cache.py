"""Router memo correctness: a memoized router must be observably
identical to the bare owner rule.

Two memo layers exist (DESIGN.md §10.1): ``stable_hash`` interning,
everywhere, and a per-router ``_RouteCache`` only where a miss is real
work — in front of a table that declares ``lookup_is_expensive`` (the
compact tables) and in front of the d-choices candidate hashes. Both
are transparent: same routes, same counters, same event sequences.
These tests pin that against :func:`key_owner` as the reference:
equivalence on a randomized mixed-type key stream, invalidation on
every table swap, per-select counter exactness, LRU bounding, and
one memo entry and one route for keys that compare equal (``1``,
``1.0`` and ``True`` are one key, ``grouping.canonical_key``).
"""

import random

import pytest

from repro.core import CompactRoutingTable, TableDelta
from repro.core.routing_table import RoutingTable
from repro.engine import grouping
from repro.engine.cluster import Cluster
from repro.engine.grouping import (
    FieldsGrouping,
    PartialKeyGrouping,
    RouterContext,
    TableFieldsGrouping,
    TableRouter,
    _RouteCache,
    candidate_instances,
    clear_stable_hash_memo,
    hash_owner,
    key_owner,
    stable_hash,
)
from repro.engine.runner import deploy
from repro.engine.simulator import Simulator
from repro.workloads.flickr import FlickrConfig, FlickrWorkload

N_DST = 5
SEED = stable_hash("s")


def _context(n_dst: int = N_DST) -> RouterContext:
    return RouterContext("s", 0, 0, list(range(n_dst)), SEED)


def _key_stream(count: int, seed: int = 7):
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            keys.append(f"tag{rng.randrange(50)}")
        elif kind == 1:
            keys.append(rng.randrange(100))
        elif kind == 2:
            keys.append(float(rng.randrange(100)))
        elif kind == 3:
            keys.append(rng.random() < 0.5)
        elif kind == 4:
            keys.append(None)
        else:
            # Non-scalar keys are never memoized.
            keys.append((rng.randrange(10), f"k{rng.randrange(10)}"))
    return keys


def _plain_table() -> RoutingTable:
    return RoutingTable({f"tag{i}": i % N_DST for i in range(0, 50, 2)})


def _compact_table() -> CompactRoutingTable:
    return CompactRoutingTable.from_table(_plain_table())


class _BareDChoices:
    """The d-choices rule with nothing memoized."""

    def __init__(self, d: int = 2) -> None:
        self.d = d
        self.sent = [0] * N_DST

    def select(self, values):
        candidates = candidate_instances(values[0], SEED, N_DST, self.d)
        dst = min(candidates, key=self.sent.__getitem__)
        self.sent[dst] += 1
        return [dst]


def _bare_hash(values):
    return [hash_owner(values[0], SEED, N_DST)]


def _bare_table(values, table=_plain_table()):
    return [key_owner(values[0], table, SEED, N_DST)[0]]


@pytest.mark.parametrize(
    "grouping_factory, bare_select",
    [
        (lambda: FieldsGrouping(0), lambda: _bare_hash),
        (
            lambda: TableFieldsGrouping(0, table=_plain_table()),
            lambda: _bare_table,
        ),
        (
            lambda: TableFieldsGrouping(0, table=_compact_table()),
            lambda: _bare_table,
        ),
        (lambda: PartialKeyGrouping(0), lambda: _BareDChoices().select),
    ],
    ids=["fields", "table-fields", "compact-table-fields", "partial-key"],
)
def test_cached_routing_matches_uncached(grouping_factory, bare_select):
    """Randomized key stream: every keyed router — memoized (compact
    table, d-choices) or not — must decide as the bare rule does at
    every step (partial-key routing is stateful, so step-by-step
    comparison is the real test)."""
    router = grouping_factory().build_router(_context())
    bare = bare_select()
    for key in _key_stream(3000):
        assert router.select((key,)) == bare((key,))


def test_memo_is_chosen_by_what_the_router_holds():
    """A dictionary lookup gets no memo in front of it; a compact
    lookup does; the choice is re-made whenever the table changes."""
    router = TableFieldsGrouping(0).build_router(_context())
    assert router._cache is None
    router.update_table(_plain_table())
    assert router._cache is None
    router.update_table(_compact_table())
    assert router._cache is not None
    router.resize(N_DST + 1, _plain_table())
    assert router._cache is None
    router.resize(N_DST, _compact_table())
    assert router._cache is not None
    assert not hasattr(FieldsGrouping(0).build_router(_context()), "_cache")


def test_table_router_cache_invalidated_on_update_table():
    for wire in (lambda table: table, CompactRoutingTable.from_table):
        router = TableFieldsGrouping(
            0, table=wire(RoutingTable({"a": 1, "b": 2}))
        ).build_router(_context())
        assert router.select(("a",)) == [1]
        assert router.select(("a",)) == [1]  # compact: from the memo

        router.update_table(wire(RoutingTable({"a": 3})))
        assert router.select(("a",)) == [3]
        # "b" left the table: must fall back to hashing, not the memo.
        assert router.select(("b",)) == [hash_owner("b", SEED, N_DST)]

        # resize swaps width and table together; the memo goes too
        router.resize(3, wire(RoutingTable({"a": 2})))
        assert router.select(("a",)) == [2]
        assert router.select(("b",)) == [hash_owner("b", SEED, 3)]


def test_table_router_cache_invalidated_by_an_applied_delta():
    """The protocol ships deltas: the table a delta produces replaces
    the memoized one like any other swap."""
    mapping = {f"k{i}": i % N_DST for i in range(40)}
    old = RoutingTable(mapping)
    del mapping["k1"]  # one key removed, one moved, one added
    new = RoutingTable({**mapping, "k0": 4, "zz": 0})
    router = TableFieldsGrouping(
        0, table=CompactRoutingTable.from_table(old)
    ).build_router(_context())
    probes = ("k0", "k1", "k2", "zz")
    assert [router.select((k,)) for k in probes] == [
        [0],
        [1],
        [2],
        [hash_owner("zz", SEED, N_DST)],
    ]
    delta = TableDelta.diff(old, new)
    assert delta.snapshot is None  # a real delta, not a full table
    router.update_table(delta.apply(router.table))
    assert [router.select((k,)) for k in probes] == [
        [4],
        [hash_owner("k1", SEED, N_DST)],
        [2],
        [0],
    ]


def test_table_router_counters_exact_with_caching():
    """table_hits / hash_fallbacks count per select, not per memo
    fill — the telemetry layer exports the per-tuple split."""
    table = RoutingTable({"hot": 0})
    keys = ["hot", "hot", "cold", "hot", "cold", "cold", "hot"]
    for held in (table, CompactRoutingTable.from_table(table)):
        router = TableRouter(lambda v: v[0], 4, 1, held)
        for key in keys:
            router.select((key,))
        assert router.table_hits == 4
        assert router.hash_fallbacks == 3


def test_route_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(grouping, "ROUTE_CACHE_CAPACITY", 3)
    cache = _RouteCache()
    for i in range(3):
        cache.put(i, [i])
    assert len(cache) == 3
    cache.get(0)  # 0 becomes MRU; 1 is now the LRU entry
    cache.put(3, [3])
    assert len(cache) == 3
    assert cache.get(1) is None
    assert cache.get(0) == [0]
    assert cache.get(3) == [3]

    # and so are the routers' memos, whatever the key cardinality
    compact = TableFieldsGrouping(0, table=_compact_table())
    for router in (
        compact.build_router(_context()),
        PartialKeyGrouping(0).build_router(_context()),
    ):
        for i in range(50):
            router.select((f"tag{i}",))
        assert len(router._cache) == 3


def test_equal_keys_of_different_types_share_one_route():
    """1 == 1.0 == True: one key of a bolt's state, so one owner,
    whichever spelling filled the memos first."""
    spellings = (1, 1.0, True)
    for first in spellings:
        clear_stable_hash_memo()
        owner = hash_owner(first, SEED, 1000)
        for grouping_ in (
            FieldsGrouping(0),
            TableFieldsGrouping(0, table=CompactRoutingTable({})),
        ):
            router = grouping_.build_router(_context(1000))
            for _ in range(2):  # second pass: served from the memos
                routes = [router.select((key,))[0] for key in spellings]
                assert routes == [owner] * 3
        pkg = PartialKeyGrouping(0).build_router(_context(1000))
        candidates = candidate_instances(first, SEED, 1000, 2)
        for key in spellings * 2:
            assert pkg.select((key,))[0] in candidates
    clear_stable_hash_memo()


def test_stable_hash_memo_is_transparent():
    clear_stable_hash_memo()
    keys = ["x", b"x", 42, 42.0, True, None, ("t", 1)]
    cold = [stable_hash(k, seed=9) for k in keys]
    warm = [stable_hash(k, seed=9) for k in keys]
    assert cold == warm
    clear_stable_hash_memo()
    assert [stable_hash(k, seed=9) for k in keys] == cold


def _fig13_fingerprint() -> tuple:
    """The Fig. 13 application with one committed round on compact
    tables, so every table router routes through its memo."""
    from repro.core import CompactTableConfig, Manager, ManagerConfig

    workload = FlickrWorkload(FlickrConfig(num_tags=200, seed=3))
    topology = workload.topology(parallelism=3, tuples_per_instance=2000)
    sim = Simulator()
    sim.enable_fingerprint()
    cluster = Cluster(sim, 3, bandwidth_gbps=1.0)
    deployment = deploy(sim, cluster, topology)
    manager = Manager(
        deployment, ManagerConfig(compact_tables=CompactTableConfig())
    )
    sim.schedule(0.002, manager.reconfigure)
    deployment.start()
    sim.run()
    assert len(manager.completed_rounds) == 1
    routers = [
        edge.router
        for executor in deployment.instances("S")
        for edge in executor.out_edges
    ]
    # the round committed mid-stream: tuples routed through the memos
    assert all(0 < len(router._cache) for router in routers)
    assert all(router.table_hits > 0 for router in routers)
    processed = dict(deployment.metrics.processed)
    return sim.fingerprint, sim.events_executed, processed


def test_fingerprint_unchanged_with_caching_enabled(monkeypatch):
    """End to end: the memo must not move a single event — the
    event-sequence fingerprint at the default capacity equals the one
    with a memo that holds a single key (every other select a miss)."""
    with_cache = _fig13_fingerprint()
    monkeypatch.setattr(grouping, "ROUTE_CACHE_CAPACITY", 1)
    assert _fig13_fingerprint() == with_cache
