"""Property tests: the batch routing kernel == the scalar routers.

``repro.engine.routing_kernel`` is the one batch implementation of
routing (the vectorized edges and the multiprocess workers both call
it): a route resolved *once per distinct key* into a numpy array and
gathered per batch. The scalar routers resolve per tuple and stay the
oracle. These properties pin that the two are the same function:

- table/hash kernels route every key exactly where ``TableRouter`` /
  ``_HashFieldsRouter`` would, for arbitrary keys, seeds, widths and
  (partial) tables — including after ``update_table`` and ``resize`` —
  and count ``table_hits`` / ``hash_fallbacks`` per *tuple* as they do;
- PKG kernels: candidate tuples equal ``candidate_instances`` and the
  picks equal ``_DChoicesRouter``'s on the same tuple sequence;
- hybrid kernels: split keys land inside their member set, tail keys
  route exactly like the table router;
- key interning is type-tagged: ``1``, ``1.0`` and ``True`` are equal
  as dict keys but are distinct routing keys (distinct reprs, hence
  potentially distinct hashes) — the vocabulary must never alias them;
- non-scalar keys are never interned and resolve directly;
- groupings with no batch form (broadcast, global, local-or-shuffle,
  custom) go through the generic kernel, multi-destination selects
  included.
"""

import numpy as np
from hypothesis import given, settings
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
    RouterContext,
    ShuffleGrouping,
    TableFieldsGrouping,
    candidate_instances,
)
from repro.engine.routing_kernel import (
    Vocab,
    build_kernel,
    edge_kind,
    route_per_source,
)

keys_st = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
)
# containers are never interned: (1,) / (True,) would alias
loose_keys_st = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=3)),
    st.tuples(st.booleans(), st.text(max_size=2)),
)
small_tables = st.dictionaries(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=0, max_value=1),
    max_size=20,
)
seeds = st.integers(min_value=0, max_value=2**32)


def _context(n, seed, src_instance=0, num_servers=1):
    return RouterContext(
        stream_name="prop",
        src_instance=src_instance,
        src_server=src_instance % num_servers,
        dst_placements=[i % num_servers for i in range(n)],
        seed=seed,
    )


def _pair(grouping, n, seed):
    """(kernel, scalar router) built from one grouping + context."""
    return (
        build_kernel(grouping, _context(n, seed)),
        grouping.build_router(_context(n, seed)),
    )


def _route(kernel, keys):
    dst, _, rows = kernel.route([(k,) for k in keys])
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
    kernel, router = _pair(FieldsGrouping(0), n, seed)
    assert _route(kernel, keys) == _select(router, keys)
    assert kernel.table_hits == 0
    assert kernel.hash_fallbacks == len(keys)


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
    kernel, router = _pair(TableFieldsGrouping(0, table=table), n, seed)
    for _ in range(2):  # second batch: every key already interned
        assert _route(kernel, keys) == _select(router, keys)
    # counted per tuple, not per distinct key
    assert kernel.table_hits == router.table_hits
    assert kernel.hash_fallbacks == router.hash_fallbacks
    assert kernel.table_hits + kernel.hash_fallbacks == 2 * len(keys)


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
    kernel, router = _pair(TableFieldsGrouping(0), n, seed)
    _route(kernel, keys)  # populate vocab + routes under no table
    table = RoutingTable(mapped)
    kernel.update_table(table)
    router.update_table(table)
    assert _route(kernel, keys) == _select(router, keys)
    for key in keys:
        assert kernel.owner_of(key) == router.select((key,))[0]


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
    kernel, router = _pair(TableFieldsGrouping(0), n, seed)
    _route(kernel, keys)
    table = RoutingTable(mapped)
    kernel.resize(new_n, table)
    router.resize(new_n, table)
    dst = _route(kernel, keys)
    assert dst == _select(router, keys)
    assert all(0 <= d < new_n for d in dst)
    # owners cover every interned key: what state migration reads
    assert kernel.owners[kernel.vocab.encode(keys)[0]].tolist() == dst


@given(
    keys=st.lists(keys_st, min_size=1, max_size=30),
    seed=seeds,
    n=st.integers(min_value=2, max_value=9),
    d=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_pkg_edge_candidates_match_and_contain_picks(keys, seed, n, d):
    kernel, router = _pair(PartialKeyGrouping(0, d=d), n, seed)
    dst = _route(kernel, keys)
    for i, key in enumerate(keys):
        expected = candidate_instances(key, seed, n, d)
        kid = kernel.vocab.id_of(key)
        assert kernel.cands[kid] == expected
        assert dst[i] in expected
    # same tuple sequence, same load counters: the picks are identical
    assert dst == _select(router, keys)
    assert kernel.sent == router.sent_counts


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=60
    ),
    seed=seeds,
    n=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_hybrid_split_containment_and_tail_exactness(keys, seed, n):
    # key 0 is split over instances {0, 1}; the tail is table/hash
    table = RoutingTable(
        {k: k % n for k in range(5)}, splits={0: (0, 1)}
    )
    kernel = build_kernel(
        HybridTableFieldsGrouping(0, table=table), _context(n, seed)
    )
    tail_router = TableFieldsGrouping(0, table=table).build_router(
        _context(n, seed)
    )

    def check():
        dst = _route(kernel, keys)
        for i, key in enumerate(keys):
            if key == 0:
                assert dst[i] in (0, 1)
            else:
                assert [dst[i]] == tail_router.select((key,))

    check()
    assert kernel.split_routes == keys.count(0)
    assert (
        kernel.table_hits + kernel.hash_fallbacks + kernel.split_routes
        == len(keys)
    )
    assert int(kernel.sent.sum()) == len(keys)
    # a table swap moves the split set with it and resets the load
    table = RoutingTable({k: k % n for k in range(5)}, splits={0: (1,)})
    kernel.update_table(table)
    tail_router.update_table(table)
    dst = _route(kernel, keys)
    assert all(d == 1 for d, key in zip(dst, keys) if key == 0)
    assert int(kernel.sent.sum()) == len(keys)
    table = RoutingTable({k: k % n for k in range(5)}, splits={0: (0, 1)})
    kernel.resize(n + 1, table)
    tail_router.resize(n + 1, table)
    check()


def test_vocab_is_type_tagged():
    vocab = Vocab()
    ids, loose = vocab.encode([1, 1.0, True, 1, "1"])
    # equal-as-dict-keys values of different types get distinct ids
    assert ids[0] != ids[1] != ids[2]
    assert ids[0] == ids[3]
    assert len(vocab.keys) == 4
    assert not loose
    ids, loose = vocab.encode([(1,), 1])
    assert ids.tolist() == [-1, 0] and loose
    assert len(vocab.keys) == 4  # containers are never interned
    assert [vocab.id_of(k) for k in (1, 1.0, True, "1")] == [0, 1, 2, 3]
    assert vocab.id_of((1,)) is None and vocab.id_of(2) is None


@given(batches=st.lists(st.lists(keys_st, max_size=12), max_size=6))
@settings(max_examples=100, deadline=None)
def test_vocab_single_type_batches_share_the_id_space(batches):
    """A batch of one scalar type takes the per-type memo in one map;
    a mixed batch dispatches per key. Both number into one id space:
    whichever path saw a key first, every later one finds it."""
    vocab, one_by_one = Vocab(), Vocab()
    for batch in batches:
        ids, loose = vocab.encode(batch)
        assert not loose
        expected = [int(one_by_one.encode([key])[0][0]) for key in batch]
        assert ids.tolist() == expected
        assert ids.tolist() == [vocab.id_of(key) for key in batch]
    assert vocab.keys == one_by_one.keys
    assert [type(k) for k in vocab.keys] == [
        type(k) for k in one_by_one.keys
    ]


@given(
    keys=st.lists(st.one_of(keys_st, loose_keys_st), min_size=1, max_size=30),
    seed=seeds,
    n=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_non_scalar_keys_resolve_directly_like_the_routers(keys, seed, n):
    table = RoutingTable({(1,): 1, (True, "a"): 0, 5: 1})
    kernel, router = _pair(TableFieldsGrouping(0, table=table), n, seed)
    assert _route(kernel, keys) == _select(router, keys)
    assert kernel.table_hits == router.table_hits
    assert kernel.hash_fallbacks == router.hash_fallbacks
    pkg, pkg_router = _pair(PartialKeyGrouping(0), n, seed)
    assert _route(pkg, keys) == _select(pkg_router, keys)


def test_shuffle_edge_round_robins_per_source_instance():
    kernel = build_kernel(ShuffleGrouping(), _context(4, 0, src_instance=2))
    values = [(i,) for i in range(6)]
    # starts at its source instance index, like _ShuffleRouter
    assert kernel.route(values)[0].tolist() == [2, 3, 0, 1, 2, 3]
    assert kernel.route(values)[0].tolist() == [0, 1, 2, 3, 0, 1]


def test_generic_kernel_loops_the_scalar_router():
    values = [(i,) for i in range(5)]
    for grouping in (GlobalGrouping(), LocalOrShuffleGrouping()):
        assert edge_kind(grouping) == "generic"
        context = _context(4, 0, src_instance=1, num_servers=2)
        kernel = build_kernel(grouping, context)
        router = grouping.build_router(context)
        dst, ids, rows = kernel.route(values)
        assert ids is None and rows is None
        assert dst.tolist() == [router.select(v)[0] for v in values]

    # multi-destination selects: rows says whose copy each entry is
    dst, _, rows = build_kernel(BroadcastGrouping(), _context(3, 0)).route(
        values[:2]
    )
    assert dst.tolist() == [0, 1, 2, 0, 1, 2]
    assert rows.tolist() == [0, 0, 0, 1, 1, 1]

    # ... and selects that drop a tuple or fan it out unevenly
    fan = CustomGrouping(lambda v, ctx: list(range(v[0] % 3)))
    dst, _, rows = build_kernel(fan, _context(3, 0)).route(values)
    assert dst.tolist() == [0, 0, 1, 0]
    assert rows.tolist() == [1, 2, 2, 4]


def test_route_per_source_groups_a_mixed_batch_by_instance():
    kernels = {
        i: build_kernel(ShuffleGrouping(), _context(4, 0, src_instance=i))
        for i in (1, 3)
    }
    values = [(i,) for i in range(6)]
    src = np.array([3, 1, 1, 3, 1, 3])
    dst, rows = route_per_source(kernels.__getitem__, values, src)
    # each instance's tuples in their own order, from its own cursor
    assert rows.tolist() == [1, 2, 4, 0, 3, 5]
    assert dst.tolist() == [1, 2, 3, 3, 0, 1]
    # a single-source batch is routed in place
    dst, rows = route_per_source(
        kernels.__getitem__, values[:2], np.array([3, 3])
    )
    assert rows is None and dst.tolist() == [2, 3]


def test_backends_hold_no_routing_math():
    """Said once. Routing math lives in ``grouping.py`` and
    ``routing_kernel.py`` only; a backend that names these again has
    re-forked the kernel. Likewise the backend files define no
    operator-hosting loop: bolts run behind ``physical.HostedBolt``,
    through ``process_batch``.

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
        ):
            assert name not in source, f"{module.__name__} uses {name}"

    hash_fallback = re.compile(r"stable_hash\([^)]*\)\s*%")
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
    assert len(hash_fallback.findall(grouping_source)) == 1


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
                 engine / "routing_kernel.py"]:
        assert not call.search(path.read_text()), (
            f"{path.relative_to(engine)} calls np.unique"
        )
