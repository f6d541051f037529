"""The owner rule is said once: every site answers ``key_owner``.

Section 3.3 — a key in the routing table goes where the table says, any
other key where the hash says — is written in
:func:`repro.engine.grouping.key_owner` (and the fallback in
:func:`~repro.engine.grouping.hash_owner`). Algorithm 1 moves state
correctly only if the routers (per tuple and per batch), the migration
planner, the rescale scan and the rollback all compute that owner
identically; this property checks each of them against the one
function instead of against each other, pair by pair.

Keys that compare equal are one key (``grouping.canonical_key``): a
second property checks that every site gives them one owner, and NaN,
which equals no key, is refused by name everywhere.

The rule is the DES's, so this file needs no numpy: the ``chaos`` CI
job runs it without numpy installed, and the batch entry points
(``route``, ``key_owners``) and the batch backends, which do need it,
are skipped there.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompactRoutingTable
from repro.core.assignment import RoutedStream, plan_migrations
from repro.core.reconfiguration import RescaleSpec
from repro.core.routing_table import RoutingTable, entry_fingerprint
from repro.engine.grouping import (
    FieldsGrouping,
    HybridTableFieldsGrouping,
    PartialKeyGrouping,
    RouterContext,
    TableFieldsGrouping,
    Vocab,
    candidate_instances,
    candidates_of,
    clear_stable_hash_memo,
    hash_owner,
    key_owner,
    key_owners,
    stable_hash,
    stable_hashes,
    stream_context,
    stream_seed,
)
from repro.errors import RoutingError

def _importable(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


needs_numpy = pytest.mark.skipif(
    not _importable("numpy"),
    reason="batch routing and the backends need numpy",
)

keys_st = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(max_size=6),
    st.none(),
    st.tuples(st.integers(0, 5), st.text(max_size=2)),
)


@st.composite
def _owner_cases(draw):
    """(keys, stream, table): distinct keys, some of them in a table of
    the stream's width."""
    keys = draw(st.lists(keys_st, min_size=1, max_size=40, unique_by=repr))
    n = draw(st.integers(min_value=1, max_value=9))
    stream = RoutedStream(
        draw(st.text(min_size=1, max_size=8)), "S", "A", list(range(n))
    )
    in_table = draw(st.lists(st.sampled_from(keys), unique_by=repr))
    table = RoutingTable(
        {key: draw(st.integers(0, n - 1)) for key in in_table}
    )
    return keys, stream, table


def _expected(keys, stream, table):
    """``key_owner`` of every key, checked against its definition."""
    seed = stream_seed(stream.name)
    assert stream.hash_seed == seed
    n = len(stream.dst_placements)
    expected = [key_owner(key, table, seed, n) for key in keys]
    for key, (owner, from_table) in zip(keys, expected):
        assert from_table == (key in table)
        assert owner == (
            table.lookup(key) if from_table else hash_owner(key, seed, n)
        )
    return expected


def _held_tables(table):
    """A plain table (no memo) and its compact form (memoized)."""
    return (table, CompactRoutingTable.from_table(table))


@given(case=_owner_cases())
@settings(max_examples=150, deadline=None)
def test_every_site_answers_the_owner_function(case):
    keys, stream, table = case
    expected = _expected(keys, stream, table)
    owners = [owner for owner, _ in expected]
    seed, n = stream.hash_seed, len(stream.dst_placements)

    # the data plane, per tuple: ``select`` (plain table: no memo;
    # compact table: memoized, second pass served from it)
    context = stream_context(stream, 0, 0, stream.dst_placements)
    assert context.seed == seed
    values = [(key,) for key in keys]
    hits = sum(from_table for _, from_table in expected)
    for held in _held_tables(table):
        router = TableFieldsGrouping(0, table=held).build_router(context)
        for _ in range(2):
            assert [router.select(v) for v in values] == [[o] for o in owners]
        assert router.table_hits == 2 * hits
        assert router.hash_fallbacks == 2 * (len(keys) - hits)

    # the control plane: planner view, rescale scan, rollback reading
    spec = RescaleSpec(table, stream.hash_seed, n, list(range(n)))
    for key, (owner, from_table) in zip(keys, expected):
        assert stream.owner(key, table) == (owner, from_table)
        assert stream.fallback_instance(key) == hash_owner(key, seed, n)
        assert spec.owner_of(key) == owner
        assert stream.owner(key, table, strict=False)[0] == owner

    # planning: against no table, exactly the table's keys whose hash
    # owner differs move, from the hash owner to the table owner
    moves = {
        key: pair
        for pair, moved in plan_migrations(
            RoutingTable.empty(), table, stream
        ).items()
        for key in moved
    }
    assert moves == {
        key: (hash_owner(key, seed, n), owner)
        for key, owner in table.items()
        if hash_owner(key, seed, n) != owner
    }


@needs_numpy
@given(case=_owner_cases())
@settings(max_examples=150, deadline=None)
def test_batch_route_answers_the_owner_function(case):
    """The data plane per batch: ``route`` and ``owner_of``, counted
    per tuple like ``select``."""
    keys, stream, table = case
    expected = _expected(keys, stream, table)
    owners = [owner for owner, _ in expected]
    context = stream_context(stream, 0, 0, stream.dst_placements)
    values = [(key,) for key in keys]
    hits = sum(from_table for _, from_table in expected)
    for held in _held_tables(table):
        batch = TableFieldsGrouping(0, table=held).build_router(context)
        for _ in range(2):
            assert batch.route(values)[0].tolist() == owners
        assert [batch.owner_of(key) for key in keys] == owners
        assert batch.table_hits == 2 * hits
        assert batch.hash_fallbacks == 2 * (len(keys) - hits)


def test_out_of_range_entry_is_decided_once():
    """A table entry outside ``range(n)``: the data plane refuses it,
    naming key, instance and width; the control plane's tolerant
    reading of a stale table falls back to the hash."""
    stale = RoutingTable({"k": 7})
    with pytest.raises(RoutingError, match=r"'k' to instance 7.*3 dest"):
        key_owner("k", stale, 1, 3)
    assert key_owner("k", stale, 1, 3, strict=False) == (
        hash_owner("k", 1, 3),
        False,
    )
    assert key_owner("k", stale, 1, 8) == (7, True)
    stream = RoutedStream("s", "S", "A", [0, 1, 2])
    with pytest.raises(RoutingError):
        stream.owner("k", stale)
    with pytest.raises(RoutingError):
        RescaleSpec(stale, 1, 3, [0, 1, 2]).owner_of("k")


class _LookupOnly:
    """The table protocol at its smallest: ``lookup`` and nothing else."""

    def __init__(self, mapping):
        self._mapping = mapping

    def lookup(self, key):
        return self._mapping.get(key)


mixed_keys_st = st.one_of(
    keys_st, st.booleans(), st.floats(allow_nan=False), st.binary(max_size=3)
)


@needs_numpy
@given(
    keys=st.lists(mixed_keys_st, max_size=40),
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32),
    kind=st.sampled_from(["none", "plain", "compact", "lookup-only"]),
    strict=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_batch_owner_rule_is_the_scalar_rule(keys, n, seed, kind, strict, data):
    """``key_owners`` is ``key_owner`` per key — duplicates, scalar types
    that alias as dict keys (``1`` / ``1.0`` / ``True``), every table
    representation, and entries outside ``range(n)``: refused under
    ``strict`` with the scalar rule's error, hashed otherwise."""
    mapping = {
        key: data.draw(st.integers(0, n + 1))  # n, n + 1: out of range
        for key in data.draw(
            st.lists(st.sampled_from(keys), unique_by=repr) if keys
            else st.just([])
        )
    }
    table = {
        "none": lambda: None,
        "plain": lambda: RoutingTable(mapping),
        "compact": lambda: CompactRoutingTable(mapping),
        "lookup-only": lambda: _LookupOnly(mapping),
    }[kind]
    scalar_table = table()
    try:
        expected = [
            key_owner(key, scalar_table, seed, n, strict) for key in keys
        ]
    except RoutingError as error:
        with pytest.raises(RoutingError) as info:
            key_owners(keys, table(), seed, n, strict)
        assert str(info.value) == str(error)
        return
    batch_table = table()
    owners, from_table = key_owners(keys, batch_table, seed, n, strict)
    assert list(zip(owners, from_table)) == expected
    if kind == "compact":  # a batch lookup counts like the scalar ones
        assert batch_table.lookups == scalar_table.lookups == len(keys)
        assert batch_table.filter_rejects == scalar_table.filter_rejects


def test_a_float_zero_hashes_alike_whichever_zero_came_first():
    """``-0.0 == 0.0``, so the ``stable_hash`` memo, a vocabulary and a
    bolt's state each hold the two as one key: the key needs one hash,
    not the one of whichever zero a process hashed first."""
    for seed in (0, 1, stream_seed("S->B")):
        answers = []
        for first in (0.0, -0.0):
            clear_stable_hash_memo()
            stable_hash(first, seed)
            answers.append((stable_hash(-0.0, seed), stable_hash(0.0, seed)))
        clear_stable_hash_memo()
        assert answers[0] == answers[1] == (stable_hash(-0.0, seed),) * 2


@needs_numpy
@pytest.mark.parametrize("backend", ["reference", "vectorized", "multiprocess"])
def test_a_zero_key_has_one_owner_on_every_backend(backend):
    """Spout instance 0 emits ``-0.0``, instance 1 ``0.0``, on different
    servers: a fields grouping is deterministic, so the one key they
    make lives on one instance — in a fresh process, where each server
    hashes its own zero first, as well."""
    from repro.engine import CountBolt, FieldsGrouping, TopologyBuilder
    from repro.engine.backends import BackendOptions, run_topology
    from repro.engine.operators import IteratorSpout

    builder = TopologyBuilder()
    builder.spout(
        "S",
        lambda: IteratorSpout(
            lambda ctx: [(-0.0 if ctx.instance_index == 0 else 0.0,)] * 5
        ),
        parallelism=2,
    )
    builder.bolt(
        "B", lambda: CountBolt(0, forward=False), 3,
        inputs={"S": FieldsGrouping(0)},
    )
    clear_stable_hash_memo()
    result = run_topology(
        builder.build(), backend, BackendOptions(num_servers=2)
    )
    owner = hash_owner(0.0, stream_seed("S->B"), 3)
    assert result.per_key_totals["B"] == {0.0: 10}
    assert list(result.key_instances["B"].values()) == [(owner,)]


_scalars_st = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 2.0**70]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
_nested_keys_st = st.recursive(
    _scalars_st,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


def _spellings(key):
    """Keys equal to ``key``, spelled with other classes: a bool, int or
    integral float as either of the others, a float zero as either
    zero, a tuple element by element."""
    if isinstance(key, tuple):
        return st.tuples(*map(_spellings, key))
    options = [key]
    if isinstance(key, (int, float)):
        if float(key) == key:
            options.append(float(key))
        if key == 0:
            options.append(-0.0)
        if float(key).is_integer():
            options.append(int(key))
        if key in (0, 1):
            options.append(bool(key))
    return st.sampled_from(options)


@st.composite
def _equal_keys(draw):
    """(a, b, seed, n, d, owner): two equal keys, maybe of different
    classes, and what to route them under."""
    a = draw(_nested_keys_st)
    b = draw(_spellings(a))
    assert a == b
    n = draw(st.integers(min_value=1, max_value=9))
    return (
        a,
        b,
        draw(st.integers(min_value=0, max_value=2**64)),
        n,
        draw(st.integers(min_value=2, max_value=3)),
        draw(st.one_of(st.none(), st.integers(0, n - 1))),
    )


def _tables(key, owner):
    """A plain and a compact table naming ``key`` (when ``owner`` is
    not None) among other keys, longer than any key drawn."""
    mapping = {f"filler{i}": 0 for i in range(5)}
    if owner is not None:
        mapping[key] = owner
    return RoutingTable(mapping), CompactRoutingTable(mapping)


def _cold(fn, *keys):
    """``fn`` of each key with the ``stable_hash`` memo emptied first,
    so no key is answered from an equal key's memo entry."""
    answers = []
    for key in keys:
        clear_stable_hash_memo()
        answers.append(fn(key))
    clear_stable_hash_memo()
    return answers


@given(case=_equal_keys())
@settings(max_examples=300, deadline=None)
def test_equal_keys_have_one_owner_on_every_scalar_site(case):
    """``a == b`` merges the two in a bolt's state, so they have one
    hash, one hash owner, one candidate set, one owner under a plain
    and under a compact table, and one entry fingerprint."""
    a, b, seed, n, d, owner = case
    first, second = _cold(lambda k: stable_hash(k, seed), a, b)
    assert first == second == stable_hash(b, seed) == stable_hash(a, seed)
    first, second = _cold(lambda k: hash_owner(k, seed, n), a, b)
    assert first == second
    first, second = _cold(lambda k: candidate_instances(k, seed, n, d), a, b)
    assert first == second
    for table in _tables(a, owner):
        first, second = _cold(lambda k: key_owner(k, table, seed, n), a, b)
        assert first == second
        assert first[1] == (owner is not None)
    assert entry_fingerprint(a, 1) == entry_fingerprint(b, 1)
    plain, compact = _tables(b, 0)
    assert plain.fingerprint() == compact.fingerprint()
    assert plain.fingerprint() == _tables(a, 0)[0].fingerprint()


def _keyed_groupings(table, d=2):
    """One grouping of every keyed policy."""
    return [
        FieldsGrouping(0),
        TableFieldsGrouping(0, table=table),
        HybridTableFieldsGrouping(0, table=table),
        PartialKeyGrouping(0, d=d),
    ]


@needs_numpy
@given(case=_equal_keys())
@settings(max_examples=200, deadline=None)
def test_equal_keys_have_one_owner_on_every_batch_site(case):
    """The batch forms agree too: ``stable_hashes``, ``key_owners``,
    ``candidates_of``, one ``Vocab`` id, and every keyed router's
    ``owner_rule`` and ``route`` (two fresh routers, one routing ``a``
    and one ``b``)."""
    a, b, seed, n, d, owner = case
    clear_stable_hash_memo()
    assert stable_hashes([a, b], seed).tolist() == [stable_hash(a, seed)] * 2
    left, right = candidates_of([a, b], seed, n, d)
    assert left == right
    for table in _tables(a, owner):
        owners, from_table = key_owners([a, b], table, seed, n)
        assert owners[0] == owners[1] and from_table[0] == from_table[1]
    vocab = Vocab()
    assert vocab.encode([a, b]).tolist() == [0, 0]
    assert vocab.id_of(b) == 0 and vocab.keys == [a]

    splits = {} if owner is None else {a: (owner, n - 1)}
    table = RoutingTable(_tables(a, owner)[0].mapping, splits)
    context = _context(n, seed)
    for grouping in _keyed_groupings(table, d):
        routers = [grouping.build_router(context) for _ in range(2)]
        rule = routers[0].owner_rule()
        if rule is not None:
            assert rule([(a,)]).tolist() == rule([(b,)]).tolist()
        dst = [r.route([(k,)])[0].tolist() for r, k in zip(routers, (a, b))]
        assert dst[0] == dst[1]
        ids = routers[0].route([(a,), (b,)])[1]
        assert ids[0] == ids[1]


def _context(n, seed):
    return RouterContext("S->A", 0, 0, [0] * n, seed)


NAN_KEYS = (float("nan"), ("a", (1, float("nan"))))


@pytest.mark.parametrize("key", NAN_KEYS, ids=["nan", "nested"])
def test_a_nan_key_is_refused_on_the_scalar_paths(key):
    """NaN equals no key, itself included, so no table or state dict
    could find it again: the hash and every keyed router's ``select``
    refuse it with one named error, through a compact table's route
    cache too."""
    refusal = pytest.raises(RoutingError, match="NaN is not a routing key")
    for call in (
        lambda: stable_hash(key, 3),
        lambda: hash_owner(key, 3, 4),
        lambda: key_owner(key, RoutingTable({1: 0}), 3, 4),
        lambda: candidate_instances(key, 3, 4, 2),
    ):
        with refusal:
            call()
    for table in _tables(1, 0):
        for grouping in _keyed_groupings(table):
            with refusal:
                grouping.build_router(_context(4, 3)).select((key,))


@needs_numpy
@pytest.mark.parametrize("key", NAN_KEYS, ids=["nan", "nested"])
def test_a_nan_key_is_refused_on_the_batch_paths(key):
    """``route`` on every keyed router and ``key_owners`` refuse NaN
    with the error ``select`` raises."""
    refusal = pytest.raises(RoutingError, match="NaN is not a routing key")
    with refusal:
        key_owners(["k", key], None, 3, 4)
    for table in _tables(1, 0):
        with refusal:
            key_owners([key], table, 3, 4)
        for grouping in _keyed_groupings(table):
            with refusal:
                grouping.build_router(_context(4, 3)).route(
                    [("k",), (key,)]
                )


@pytest.mark.parametrize(
    "backend", ["reference", pytest.param("vectorized", marks=needs_numpy)]
)
def test_a_nan_key_fails_the_run_by_name(backend):
    """A spout emitting a NaN key into a fields grouping stops the run
    with the named error, on the DES and on the batch backend."""
    from repro.engine import CountBolt, TopologyBuilder
    from repro.engine.backends import BackendOptions, run_topology
    from repro.engine.operators import IteratorSpout

    builder = TopologyBuilder()
    builder.spout(
        "S",
        lambda: IteratorSpout(lambda ctx: [(1.5,), (float("nan"),)]),
        parallelism=1,
    )
    builder.bolt(
        "B", lambda: CountBolt(0, forward=False), 2,
        inputs={"S": FieldsGrouping(0)},
    )
    with pytest.raises(RoutingError, match="NaN is not a routing key"):
        run_topology(builder.build(), backend, BackendOptions(num_servers=2))


def test_the_owner_rule_is_checked_without_numpy():
    """What the ``chaos`` CI job runs: with numpy unimportable, this
    file imports, skips only its numpy tests and passes the rest, the
    float-zero rule, the equal-keys property and the NaN refusal on
    the scalar paths and the DES included."""
    import os
    import subprocess
    import sys
    import textwrap

    import repro

    # An import hook, not ``sys.modules["numpy"] = None``: Hypothesis
    # seeds ``numpy.random`` whenever "numpy" is in ``sys.modules``.
    script = textwrap.dedent(
        """
        import sys

        class NoNumpy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "numpy":
                    raise ModuleNotFoundError(name, name=name)

        sys.meta_path.insert(0, NoNumpy())
        import pytest

        sys.exit(pytest.main([sys.argv[1], "-p", "no:cacheprovider",
                              "-k", "not without_numpy"]))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, os.path.abspath(__file__)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 9 skipped" in done.stdout, done.stdout
