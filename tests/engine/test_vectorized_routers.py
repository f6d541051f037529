"""Property tests: a router's ``route`` == looping its ``select``.

Every routing policy is one router class with two entry points:
``select`` per tuple (the DES) and ``route`` per batch (the vectorized
edges and the multiprocess workers), which resolves a key *once per
distinct key* into a numpy array and gathers per batch. These
properties pin that the two are the same function, by routing a batch
through one router and the same tuples one by one through a twin
built from the same grouping and context:

- table/hash routers route every key exactly where ``select`` does,
  for arbitrary keys, seeds, widths and (partial) tables — including
  after ``update_table`` and ``resize`` — and count ``table_hits`` /
  ``hash_fallbacks`` per *tuple* on both paths;
- the hash over arrays is the scalar hash: ``stable_hashes`` equals
  ``stable_hash`` per key and ``candidates_of`` equals
  ``candidate_instances`` per key (float zeros, look-alikes of ``-0.0``
  and seeds past 64 bits included);
- PKG: candidate tuples equal ``candidate_instances`` and the picks
  equal ``select``'s on the same tuple sequence;
- hybrid: split keys land inside their member set, scalar or tuple,
  and tail keys route exactly like ``select``;
- the vocabulary interns keys that compare equal (``1``, ``1.0``,
  ``True``; ``(1, "x")``, ``(True, "x")``) as one key, tuples like any
  other, and a counting bolt keyed by a tuple field counts on the
  ``bincount`` kernel exactly as on the DES;
- ``route(values, ids)`` with ids a caller interned into the router's
  vocabulary is ``route(values)``, counters included;
- policies with no batch form (broadcast, global, local-or-shuffle,
  custom) go through the default ``route``, multi-destination selects
  included.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.routing_table import RoutingTable
from repro.engine.grouping import (
    BroadcastGrouping,
    CustomGrouping,
    FieldsGrouping,
    GlobalGrouping,
    HybridTableFieldsGrouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    Router,
    RouterContext,
    ShuffleGrouping,
    TableFieldsGrouping,
    Vocab,
    candidate_instances,
    candidates_of,
    route_per_source,
    stable_hash,
    stable_hashes,
)

keys_st = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
    # (1,) / (True,) and (1, "") / (True, "") are one key each
    st.tuples(st.integers(min_value=0, max_value=3)),
    st.tuples(st.booleans(), st.text(max_size=2)),
)
small_tables = st.dictionaries(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=0, max_value=1),
    max_size=20,
)
seeds = st.integers(min_value=0, max_value=2**32)


class _Float(float):
    """A float subclass: its zeros keep their own ``repr``."""


class _LooksLikeZero:
    """Not a float, but ``repr`` reads ``-0.0``."""

    def __repr__(self):
        return "-0.0"


hash_keys_st = st.one_of(
    keys_st,
    st.integers(),
    st.binary(max_size=4),
    st.sampled_from(
        [0.0, -0.0, _Float(-0.0), _Float(0.0), _LooksLikeZero(), "-0.0",
         (-0.0,), ("a", 0.0)]
    ),
)
#: seeds as wide as a derived seed gets, and past it
wide_seeds = st.integers(min_value=0, max_value=2**64)


@given(keys=st.lists(hash_keys_st, max_size=40), seed=wide_seeds)
@example(keys=[], seed=0)
@example(keys=[-0.0], seed=2**64)
@example(keys=[_Float(-0.0)], seed=2**64 - 1)
@settings(max_examples=200, deadline=None)
def test_stable_hashes_is_stable_hash_per_key(keys, seed):
    hashes = stable_hashes(keys, seed)
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [stable_hash(key, seed) for key in keys]


@given(
    keys=st.lists(hash_keys_st, max_size=30),
    seed=wide_seeds,
    n=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=2, max_value=4),
)
@example(keys=[], seed=0, n=3, d=3)
@example(keys=[-0.0], seed=2**64, n=7, d=3)
@settings(max_examples=150, deadline=None)
def test_batch_candidates_are_candidate_instances(keys, seed, n, d):
    assert candidates_of(keys, seed, n, d) == [
        candidate_instances(key, seed, n, d) for key in keys
    ]


def _context(n, seed, src_instance=0, num_servers=1):
    return RouterContext(
        stream_name="prop",
        src_instance=src_instance,
        src_server=src_instance % num_servers,
        dst_placements=[i % num_servers for i in range(n)],
        seed=seed,
    )


def _pair(grouping, n, seed):
    """(router, twin): two routers of one grouping + context."""
    return (
        grouping.build_router(_context(n, seed)),
        grouping.build_router(_context(n, seed)),
    )


def _route(router, keys):
    dst, _, rows = router.route([(k,) for k in keys])
    assert rows is None and len(dst) == len(keys)
    return dst.tolist()


def _select(router, keys):
    return [router.select((k,))[0] for k in keys]


@given(
    keys=st.lists(keys_st, min_size=1, max_size=40),
    seed=seeds,
    n=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=150, deadline=None)
def test_hash_edge_matches_scalar_fields_router(keys, seed, n):
    router, twin = _pair(FieldsGrouping(0), n, seed)
    assert _route(router, keys) == _select(twin, keys)
    assert router.deterministic and not router.counts_table_hits


@given(
    keys=st.lists(keys_st, min_size=1, max_size=40),
    seed=seeds,
    n=st.integers(min_value=2, max_value=9),
    mapped=small_tables,
)
@settings(max_examples=150, deadline=None)
def test_table_edge_matches_scalar_table_router(keys, seed, n, mapped):
    # table covers some int keys (instances 0/1, valid for any n >= 2);
    # everything else exercises the hash fallback path
    table = RoutingTable(mapped)
    router, twin = _pair(TableFieldsGrouping(0, table=table), n, seed)
    for _ in range(2):  # second batch: every key already interned
        assert _route(router, keys) == _select(twin, keys)
    # counted per tuple, not per distinct key
    assert router.table_hits == twin.table_hits
    assert router.hash_fallbacks == twin.hash_fallbacks
    assert router.table_hits + router.hash_fallbacks == 2 * len(keys)


@given(
    keys=st.lists(
        st.integers(min_value=-100, max_value=100), min_size=1, max_size=40
    ),
    seed=seeds,
    n=st.integers(min_value=2, max_value=9),
    mapped=small_tables,
)
@settings(max_examples=100, deadline=None)
def test_table_swap_rebuilds_routes_like_update_table(keys, seed, n, mapped):
    router, twin = _pair(TableFieldsGrouping(0), n, seed)
    _route(router, keys)  # populate vocab + routes under no table
    table = RoutingTable(mapped)
    router.update_table(table)
    twin.update_table(table)
    assert _route(router, keys) == _select(twin, keys)
    for key in keys:
        assert router.owner_of(key) == twin.select((key,))[0]


@given(
    keys=st.lists(
        st.integers(min_value=-100, max_value=100), min_size=1, max_size=40
    ),
    seed=seeds,
    n=st.integers(min_value=2, max_value=6),
    new_n=st.integers(min_value=2, max_value=9),
    mapped=small_tables,
)
@settings(max_examples=100, deadline=None)
def test_resize_swaps_width_and_table_like_the_router(
    keys, seed, n, new_n, mapped
):
    router, twin = _pair(TableFieldsGrouping(0), n, seed)
    _route(router, keys)
    table = RoutingTable(mapped)
    router.resize(new_n, table)
    twin.resize(new_n, table)
    dst = _route(router, keys)
    assert dst == _select(twin, keys)
    assert all(0 <= d < new_n for d in dst)
    # owners cover every interned key: what state migration reads
    assert router.owners[router.vocab.encode(keys)].tolist() == dst
    hashed, hashed_twin = _pair(FieldsGrouping(0), n, seed)
    _route(hashed, keys)
    hashed.resize(new_n)
    hashed_twin.resize(new_n)
    assert _route(hashed, keys) == _select(hashed_twin, keys)


@given(
    keys=st.lists(keys_st, min_size=1, max_size=30),
    seed=seeds,
    n=st.integers(min_value=2, max_value=9),
    d=st.integers(min_value=2, max_value=4),
)
@example(keys=[0, "a", 0, 1.5, None, "a", -0.0], seed=7, n=5, d=3)
@settings(max_examples=100, deadline=None)
def test_pkg_edge_candidates_match_and_contain_picks(keys, seed, n, d):
    router, twin = _pair(PartialKeyGrouping(0, d=d), n, seed)
    dst = _route(router, keys)
    for i, key in enumerate(keys):
        expected = candidate_instances(key, seed, n, d)
        assert router._cands[router.vocab.id_of(key)] == expected
        assert dst[i] in expected
    # same tuple sequence, same load counters: the picks are identical
    assert dst == _select(twin, keys)
    assert router.sent_counts == twin.sent_counts
    # a resize drops the candidates of the old width on both paths
    router.resize(n + 1)
    twin.resize(n + 1)
    assert _route(router, keys) == _select(twin, keys)


#: key 0 and the tuple key ("a", 1) are split; the table sends
#: ("a", 1) to instance 0, outside its member set {1}
SPLIT_KEYS = (0, ("a", 1))


@given(
    keys=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=30),
            st.sampled_from([("a", 1), ("b", 2)]),
        ),
        min_size=1,
        max_size=60,
    ),
    seed=seeds,
    n=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_hybrid_split_containment_and_tail_exactness(keys, seed, n):
    def table(splits):
        mapped = {k: k % n for k in range(5)}
        mapped[("a", 1)] = mapped[("b", 2)] = 0
        return RoutingTable(mapped, splits=splits)

    members = {0: (0, 1), ("a", 1): (1,)}
    grouping = HybridTableFieldsGrouping(0, table=table(members))
    router, twin = _pair(grouping, n, seed)

    def check():
        dst = _route(router, keys)
        for i, key in enumerate(keys):
            if key in members:
                assert dst[i] in members[key]
            else:
                assert [dst[i]] == twin.select((key,))

    split = sum(keys.count(key) for key in SPLIT_KEYS)
    check()
    assert router.split_routes == split
    assert (
        router.table_hits + router.hash_fallbacks + router.split_routes
        == len(keys)
    )
    assert sum(router.sent_counts) == len(keys)
    # a table swap moves the split set with it and resets the load
    members = {0: (1,), ("a", 1): (1,)}
    router.update_table(table(members))
    twin.update_table(table(members))
    dst = _route(router, keys)
    assert all(d == 1 for d, key in zip(dst, keys) if key in members)
    assert sum(router.sent_counts) == len(keys)
    members = {0: (0, 1), ("a", 1): (n,)}
    router.resize(n + 1, table(members))
    twin.resize(n + 1, table(members))
    check()


def _counters(router):
    """What a router counts per tuple, whichever of it it has."""
    return [
        getattr(router, name, None)
        for name in ("table_hits", "hash_fallbacks", "split_routes",
                     "sent_counts")
    ]


@given(
    keys=st.lists(keys_st, max_size=30),
    seed=seeds,
    n=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(["hash", "table", "hybrid"]),
    mapped=small_tables,
)
@settings(max_examples=150, deadline=None)
def test_route_by_given_ids_is_route(keys, seed, n, kind, mapped):
    """``route(values, ids)``, the ids interned by the caller into the
    router's own vocabulary, is ``route(values)`` on a twin: the same
    destinations, ids and counters, before and after a table swap and
    a resize."""

    def table(width):
        return RoutingTable(mapped, splits={0: (0, 1), (1,): (width - 1,)})

    grouping = {
        "hash": FieldsGrouping(0),
        "table": TableFieldsGrouping(0, table=table(n)),
        "hybrid": HybridTableFieldsGrouping(0, table=table(n)),
    }[kind]
    router, twin = _pair(grouping, n, seed)
    router.route([])  # the batch state, as a vectorized edge makes it
    values = [(key,) for key in keys]

    def check():
        ids = router.vocab.encode(keys)
        dst, given, rows = router.route(values, ids)
        expected = twin.route(values)
        assert given is ids and rows is None
        assert dst.tolist() == expected[0].tolist()
        assert ids.tolist() == expected[1].tolist()
        assert _counters(router) == _counters(twin)

    check()
    check()
    if kind != "hash":
        router.update_table(table(n))
        twin.update_table(table(n))
        check()
        router.resize(n + 1, table(n + 1))
        twin.resize(n + 1, table(n + 1))
    else:
        router.resize(n + 1)
        twin.resize(n + 1)
    check()


def test_hybrid_routes_a_split_non_scalar_key_like_select():
    """The member sequence of a batch of one split tuple key is
    ``select``'s: the batch picks per tuple from the key's members."""
    table = RoutingTable({("a", 1): 0}, splits={("a", 1): (2, 3)})
    router, twin = _pair(HybridTableFieldsGrouping(0, table=table), 4, 0)
    assert _route(router, [("a", 1)] * 6) == [2, 3, 2, 3, 2, 3]
    assert _select(twin, [("a", 1)] * 6) == [2, 3, 2, 3, 2, 3]
    assert router.split_routes == twin.split_routes == 6
    assert router.sent_counts == twin.sent_counts == [0, 0, 3, 3]


def test_vocab_interns_equal_keys_as_one():
    """Keys that compare equal are one key of a bolt's state, so one
    id: the first one seen stands for them all. Tuple keys are
    interned like any other."""
    vocab = Vocab()
    ids = vocab.encode([1, 1.0, True, "1", (1, "x"), (True, "x"), -0.0, 0])
    assert ids.tolist() == [0, 0, 0, 1, 2, 2, 3, 3]
    assert vocab.keys == [1, "1", (1, "x"), -0.0]
    assert [vocab.id_of(k) for k in (1.0, (1.0, "x"), 0.0, False)] == [
        0, 2, 3, 3
    ]
    assert vocab.id_of(2) is None and vocab.id_of((1,)) is None


@given(batches=st.lists(st.lists(keys_st, max_size=12), max_size=6))
@settings(max_examples=100, deadline=None)
def test_vocab_single_type_batches_share_the_id_space(batches):
    """A batch encodes as its keys do one by one: whichever batch saw a
    key (or a key equal to it) first, every later one finds its id."""
    vocab, one_by_one = Vocab(), Vocab()
    for batch in batches:
        ids = vocab.encode(batch)
        expected = [int(one_by_one.encode([key])[0]) for key in batch]
        assert ids.tolist() == expected
        assert ids.tolist() == [vocab.id_of(key) for key in batch]
    assert vocab.keys == one_by_one.keys
    assert [type(k) for k in vocab.keys] == [
        type(k) for k in one_by_one.keys
    ]


def test_tuple_keys_count_on_the_bincount_kernel():
    """A ``CountBolt`` keyed by a tuple field runs on the vectorized
    ``bincount`` kernel, and every instance's state equals the DES's
    exactly: equal tuple keys from different spout instances merge
    into one entry on one instance."""
    from repro.engine import CountBolt, TopologyBuilder
    from repro.engine.backends import BackendOptions, run_topology
    from repro.engine.backends.vectorized import _VectorCountOp
    from repro.engine.operators import IteratorSpout

    spellings = [
        lambda i: (i % 7, "x"),
        lambda i: (bool(i % 2) if i % 7 < 2 else float(i % 7), "x"),
        lambda i: ((i % 3, (i % 2 == 0, -0.0)), "y"),
    ]
    builder = TopologyBuilder()
    builder.spout(
        "S",
        lambda: IteratorSpout(
            lambda ctx: [
                (spellings[ctx.instance_index](i), i) for i in range(200)
            ]
        ),
        parallelism=3,
    )
    builder.bolt(
        "B", lambda: CountBolt(0, forward=False), 4,
        inputs={"S": FieldsGrouping(0)},
    )
    options = BackendOptions(num_servers=2, batch_size=32)
    reference = run_topology(builder.build(), "reference", options)
    vector = run_topology(builder.build(), "vectorized", options)
    bolt = vector.handle.ops["B"]
    assert isinstance(bolt, _VectorCountOp)
    expected = {
        executor.instance: dict(executor.operator.state)
        for executor in reference.handle.executors["B"]
    }
    assert bolt.state_snapshot() == expected
    assert vector.per_key_totals == reference.per_key_totals
    assert vector.key_instances == reference.key_instances
    assert len(bolt.routes.router.vocab.keys) == 7 + 6


@given(
    keys=st.lists(keys_st, min_size=1, max_size=30),
    seed=seeds,
    n=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_non_scalar_keys_resolve_directly_like_the_routers(keys, seed, n):
    """Tuple keys, among scalars, route in a batch as ``select`` routes
    them, through a table that names some of them."""
    table = RoutingTable({(1,): 1, (True, "a"): 0, 5: 1})
    router, twin = _pair(TableFieldsGrouping(0, table=table), n, seed)
    assert _route(router, keys) == _select(twin, keys)
    assert router.table_hits == twin.table_hits
    assert router.hash_fallbacks == twin.hash_fallbacks
    pkg, pkg_twin = _pair(PartialKeyGrouping(0), n, seed)
    assert _route(pkg, keys) == _select(pkg_twin, keys)


def test_shuffle_edge_round_robins_per_source_instance():
    router = ShuffleGrouping().build_router(_context(4, 0, src_instance=2))
    values = [(i,) for i in range(6)]
    # starts at its source instance index, as select does
    assert router.route(values)[0].tolist() == [2, 3, 0, 1, 2, 3]
    assert router.route(values)[0].tolist() == [0, 1, 2, 3, 0, 1]
    assert router.select(values[0]) == [2]


def test_default_route_loops_select():
    values = [(i,) for i in range(5)]
    for grouping in (GlobalGrouping(), LocalOrShuffleGrouping()):
        context = _context(4, 0, src_instance=1, num_servers=2)
        router = grouping.build_router(context)
        twin = grouping.build_router(context)
        assert type(router).route is Router.route
        dst, ids, rows = router.route(values)
        assert ids is None and rows is None
        assert dst.tolist() == [twin.select(v)[0] for v in values]

    # multi-destination selects: rows says whose copy each entry is
    router = BroadcastGrouping().build_router(_context(3, 0))
    dst, _, rows = router.route(values[:2])
    assert dst.tolist() == [0, 1, 2, 0, 1, 2]
    assert rows.tolist() == [0, 0, 0, 1, 1, 1]

    # ... and selects that drop a tuple or fan it out unevenly
    fan = CustomGrouping(lambda v, ctx: list(range(v[0] % 3)))
    dst, _, rows = fan.build_router(_context(3, 0)).route(values)
    assert dst.tolist() == [0, 0, 1, 0]
    assert rows.tolist() == [1, 2, 2, 4]


def test_route_per_source_groups_a_mixed_batch_by_instance():
    routers = {
        i: ShuffleGrouping().build_router(_context(4, 0, src_instance=i))
        for i in (1, 3)
    }
    values = [(i,) for i in range(6)]
    src = np.array([3, 1, 1, 3, 1, 3])
    dst, rows = route_per_source(routers.__getitem__, values, src)
    # each instance's tuples in their own order, from its own cursor
    assert rows.tolist() == [1, 2, 4, 0, 3, 5]
    assert dst.tolist() == [1, 2, 3, 3, 0, 1]
    # a single-source batch is routed in place
    dst, rows = route_per_source(
        routers.__getitem__, values[:2], np.array([3, 3])
    )
    assert rows is None and dst.tolist() == [2, 3]


def test_backends_hold_no_routing_math():
    """Said once. Routing math lives in ``engine/grouping.py`` only,
    one router class per policy: a backend that names these again, or
    a module that subclasses ``Router`` elsewhere, has re-forked it.
    Likewise the backend files define no operator-hosting loop: bolts
    run behind ``physical.HostedBolt``, through ``process_batch``; they
    build no router: how many routers a stream gets is decided once, by
    ``physical.StreamRoutes``; and they walk no plan: pushing batches
    into operators, draining them and cascading ``input_done`` is
    ``physical.PhysicalPlan``'s alone, in every worker too.

    And within ``src/repro`` the owner rule of Section 3.3 — table
    entry, else ``stable_hash(key, seed) % n`` — and a stream's hash
    seed are written in ``engine/grouping.py`` and nowhere else:
    everything that needs an owner calls ``key_owner`` /
    ``hash_owner`` (or ``RoutedStream.owner``), so routers, planner,
    rescale scan and rollback cannot disagree on one."""
    import inspect
    import pathlib
    import re

    import repro
    from repro.engine.backends import multiprocess, vectorized

    for module in (vectorized, multiprocess):
        source = inspect.getsource(module)
        for name in (
            "stable_hash",
            "candidate_instances",
            ".lookup(",
            "ShimTuple(",
            ".process(",
            ".process_batch(",
            "build_router(",
            "route_per_source(",
            ".add_input(",
            ".has_next(",
            ".get_next(",
            ".input_done(",
        ):
            assert name not in source, f"{module.__name__} uses {name}"

    router_class = re.compile(r"^\s*class\s+\w+\([^)]*Router\b", re.M)
    hash_fallback = re.compile(r"(stable_hash|_seeded)\([^)]*\)\s*%")
    stream_seed = re.compile(r"stable_hash\(\s*\w*\.?(stream_)?name\s*\)")
    #: modules that may call a table's ``lookup``: the rule itself, the
    #: compact table's own diffing, and ``scale_point``'s count of
    #: compact false positives (no fallback is paired with it)
    may_lookup = {
        "engine/grouping.py",
        "core/compact_table.py",
        "analysis/experiments.py",
    }
    root = pathlib.Path(repro.__file__).parent
    seeds_derived_in = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        source = path.read_text()
        seeds_derived_in += [name] * len(stream_seed.findall(source))
        if name == "engine/grouping.py":
            continue
        assert not router_class.search(source), (
            f"{name} defines a router; policies live in engine/grouping.py"
        )
        assert not hash_fallback.search(source), (
            f"{name} spells the hash fallback; call hash_owner"
        )
        if name not in may_lookup:
            assert ".lookup(" not in source, (
                f"{name} reads a routing table; call key_owner"
            )
    assert seeds_derived_in == ["engine/grouping.py"]
    grouping_source = (root / "engine/grouping.py").read_text()
    assert grouping_source.count(".lookup(") == 1
    # once per key (``hash_owner``), once over arrays (``_hash_owners``)
    assert len(hash_fallback.findall(grouping_source)) == 2


def test_the_batch_data_plane_never_calls_np_unique():
    """``np.unique`` imports ``numpy.ma`` on first use (10 ms; 17 ms
    right after a fork), and every multiprocess worker is a fresh fork:
    that was a tenth of a worker's run. Which small non-negative ints
    occur is ``flatnonzero(bincount(...))`` — no sort, no import."""
    import pathlib
    import re

    import repro

    engine = pathlib.Path(repro.__file__).parent / "engine"
    call = re.compile(r"\b(np|numpy)\.unique\b")
    for path in [*sorted((engine / "backends").glob("*.py")),
                 engine / "grouping.py"]:
        assert not call.search(path.read_text()), (
            f"{path.relative_to(engine)} calls np.unique"
        )
