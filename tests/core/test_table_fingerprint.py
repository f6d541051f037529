"""Golden table fingerprints.

A table's fingerprint is the XOR of one 64-bit value per entry (and
per split entry). Delta base checks, the routing-agreement invariant
and every campaign fingerprint compare these values, so the literals
pin the entry bytes and the mix: a table of mixed key classes (text,
non-ASCII text, small, negative and wide ints, bytes, a bool, an
integral float and a tuple, plus one ``bool`` owner), the same table
with a split set, and the two tables of one ``twitter-plan`` week plan.
Plain and compact tables must agree on every one of them.

``entries_fingerprint`` writes the per-entry hash out in one loop; a
property holds it to the one-entry form and to the pair hash it spells
out.

No numpy: the ``chaos`` CI job runs this file without it.
"""

from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompactRoutingTable, KeyGraph, plan_reconfiguration
from repro.core.assignment import RoutedStream
from repro.core.routing_table import (
    _ENTRY_FP_SEED,
    RoutingTable,
    entries_fingerprint,
    entry_fingerprint,
)
from repro.engine.grouping import canonical_key, stable_hash_uncached
from repro.spacesaving import SpaceSaving
from repro.workloads.twitter import TwitterConfig, TwitterWorkload

MIXED = {
    "Asia": 0,
    "Zürich ☃": 1,
    7: 2,
    2**64 + 5: 3,
    -7: 0,
    b"\x00ab\xff": 1,
    True: 2,
    3.0: 3,
    ("a", 2): 0,
    "bool-owner": True,
}
MIXED_FP = 11820337415105317257
MIXED_WITH_SPLIT_FP = 3367005118050995452

#: stream → (entries, fingerprint) of week 0 of ``twitter-plan``
#: planned under partitioner seed 0 with no installed tables
WEEK_PLAN = {
    "S->A": (489, 4322603856618790725),
    "A->B": (2068, 6389439388845380597),
}


def test_mixed_table_fingerprint():
    table = RoutingTable(MIXED)
    assert len(table) == len(MIXED)
    assert table.fingerprint() == MIXED_FP
    assert CompactRoutingTable(MIXED).fingerprint() == MIXED_FP
    assert CompactRoutingTable.from_table(table).fingerprint() == MIXED_FP


def test_mixed_table_with_split_fingerprint():
    table = RoutingTable(MIXED, {"Asia": (0, 2)})
    assert table.fingerprint() == MIXED_WITH_SPLIT_FP
    assert (
        CompactRoutingTable.from_table(table).fingerprint()
        == MIXED_WITH_SPLIT_FP
    )


@pytest.fixture(scope="module")
def week_plan():
    placements = [0, 1, 2, 3]
    streams = [
        RoutedStream("S->A", "S", "A", placements),
        RoutedStream("A->B", "A", "B", placements),
    ]
    weeks = TwitterWorkload(TwitterConfig(seed=0, tweets_per_week=5_000))
    sketch = SpaceSaving(100_000)
    for pair in weeks.week_pairs(0):
        sketch.offer(pair)
    graph = KeyGraph.from_stats({("S->A", "A->B"): sketch.items()})
    return plan_reconfiguration(graph, streams, 4, {}, seed=0)


def test_week_plan_table_fingerprints(week_plan):
    got = {
        stream: (len(table), table.fingerprint())
        for stream, table in week_plan.tables.items()
    }
    assert got == WEEK_PLAN
    for stream, table in week_plan.tables.items():
        compact = CompactRoutingTable.from_table(table)
        assert compact.fingerprint() == WEEK_PLAN[stream][1]
        assert CompactRoutingTable(table.mapping).fingerprint() == (
            WEEK_PLAN[stream][1]
        )


#: every key class a table may hold, equal keys of different classes
#: included (``1`` / ``True`` / ``1.0``)
_KEYS = st.one_of(
    st.text(max_size=6),
    st.integers(-(2**70), 2**70),
    st.binary(max_size=4),
    st.booleans(),
    st.floats(allow_nan=False),
    st.tuples(st.text(max_size=2), st.integers(-3, 3)),
)
#: a compact table stores owners as C ints
_OWNERS = st.one_of(st.integers(0, 2**31 - 1), st.booleans())


def _pair_hash(key, owner):
    """An entry's hash as it was written before the loop: the pair
    ``(repr(canonical_key(key)), owner)`` under the entry seed."""
    return stable_hash_uncached(
        (repr(canonical_key(key)), owner), _ENTRY_FP_SEED
    )


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEYS, _OWNERS, max_size=30))
def test_entries_fingerprint_is_the_xor_of_its_entries(mapping):
    items = list(mapping.items())
    assert entries_fingerprint(items) == reduce(
        xor, (entry_fingerprint(key, owner) for key, owner in items), 0
    )
    for key, owner in items:
        assert entry_fingerprint(key, owner) == _pair_hash(key, owner)
    table = RoutingTable(mapping)
    assert table.fingerprint() == entries_fingerprint(items)
    assert CompactRoutingTable.from_table(table).fingerprint() == (
        table.fingerprint()
    )
    assert CompactRoutingTable(mapping).fingerprint() == table.fingerprint()
