"""The owner rule is said once: every site answers ``key_owner``.

Section 3.3 — a key in the routing table goes where the table says, any
other key where the hash says — is written in
:func:`repro.engine.grouping.key_owner` (and the fallback in
:func:`~repro.engine.grouping.hash_owner`). Algorithm 1 moves state
correctly only if the routers (per tuple and per batch), the migration
planner, the rescale scan and the rollback all compute that owner
identically; this property checks each of them against the one
function instead of against each other, pair by pair.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompactRoutingTable
from repro.core.assignment import RoutedStream, plan_migrations
from repro.core.reconfiguration import RescaleSpec
from repro.core.routing_table import RoutingTable
from repro.engine.grouping import (
    TableFieldsGrouping,
    hash_owner,
    key_owner,
    key_owners,
    stream_context,
    stream_seed,
)
from repro.errors import RoutingError

keys_st = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(max_size=6),
    st.none(),
    st.tuples(st.integers(0, 5), st.text(max_size=2)),  # never memoized
)


@given(
    keys=st.lists(keys_st, min_size=1, max_size=40, unique_by=repr),
    stream_name=st.text(min_size=1, max_size=8),
    n=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_every_site_answers_the_owner_function(keys, stream_name, n, data):
    in_table = data.draw(st.lists(st.sampled_from(keys), unique_by=repr))
    table = RoutingTable(
        {key: data.draw(st.integers(0, n - 1)) for key in in_table}
    )
    stream = RoutedStream(stream_name, "S", "A", list(range(n)))
    seed = stream_seed(stream_name)
    assert stream.hash_seed == seed
    expected = [key_owner(key, table, seed, n) for key in keys]
    owners = [owner for owner, _ in expected]
    for key, (owner, from_table) in zip(keys, expected):
        assert from_table == (key in table)
        assert owner == (
            table.lookup(key) if from_table else hash_owner(key, seed, n)
        )

    # the data plane: ``select`` (plain table: no memo; compact table:
    # memoized, second pass served from it) and ``route`` of a twin
    context = stream_context(stream, 0, 0, stream.dst_placements)
    assert context.seed == seed
    values = [(key,) for key in keys]
    for held in (table, CompactRoutingTable.from_table(table)):
        grouping = TableFieldsGrouping(0, table=held)
        router = grouping.build_router(context)
        batch = grouping.build_router(context)
        for _ in range(2):
            assert [router.select(v) for v in values] == [[o] for o in owners]
            assert batch.route(values)[0].tolist() == owners
        assert [batch.owner_of(key) for key in keys] == owners
        hits = 2 * sum(from_table for _, from_table in expected)
        assert router.table_hits == batch.table_hits == hits
        assert router.hash_fallbacks == batch.hash_fallbacks == (
            2 * len(keys) - hits
        )

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
