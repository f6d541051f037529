"""One-pass compaction equals the per-key build it replaced.

``CompactRoutingTable.__init__`` writes its fingerprint store, its
filter cells and its XOR fingerprint in one loop. The per-key build it
replaced (one ``_find`` / ``_place`` / ``KeyFilter.add`` /
``entry_fingerprint`` round per key) is kept here as the reference.
Both must give the same slots, the same raw side-dict, the same filter
cells and so the same modeled size, on the Twitter workload's weekly
tables and on a table whose 8-bit fingerprints collide at build time.

No numpy: the ``chaos`` CI job runs this file without it.
"""

from array import array

import pytest

from repro.core import CompactRoutingTable, CompactTableConfig, RoutingTable
from repro.core.compact_table import KeyFilter
from repro.core.offline import offline_tables
from repro.core.routing_table import (
    entry_fingerprint,
    split_fingerprint,
    table_fingerprint,
)
from repro.workloads import TwitterConfig, TwitterWorkload


def _reference(mapping, splits=None, config=None) -> CompactRoutingTable:
    """The per-key build, as ``__init__`` and ``_build_insert`` wrote
    it before the one-pass loop."""
    table = CompactRoutingTable.__new__(CompactRoutingTable)
    table._config = config or CompactTableConfig()
    table._mask = (1 << table._config.fingerprint_bits) - 1
    table._splits = {
        key: tuple(members) for key, members in (splits or {}).items()
    }
    items = dict(mapping or {})
    table._capacity = 1 << max(3, (len(items) * 4 // 3 + 1).bit_length())
    table._fps = array("Q", bytes(8 * table._capacity))
    table._owners = array("i", bytes(4 * table._capacity))
    table._tombstones = 0
    table._len = 0
    table._exact = {}
    table._filter = KeyFilter(
        max(len(items), 1),
        table._config.filter_bits_per_key,
        table._config.filter_hashes,
    )
    table.lookups = 0
    table.filter_rejects = 0
    table.filter_false_positives = 0
    table._fingerprint = 0
    for key, members in table._splits.items():
        table._fingerprint ^= split_fingerprint(key, members)
    for key, owner in items.items():
        fp = table._slot_fp(key)
        if table._find(fp) >= 0 or key in table._exact:
            table._exact[key] = owner
        else:
            table._place(fp, owner)
        table._filter.add(key)
        table._fingerprint ^= entry_fingerprint(key, owner)
        table._len += 1
    return table


def _assert_same_build(source: RoutingTable, config=None) -> None:
    built = CompactRoutingTable.from_table(source, config)
    reference = _reference(source.mapping, source.splits, config)
    assert built._capacity == reference._capacity
    assert built._fps == reference._fps
    assert built._owners == reference._owners
    assert list(built._exact.items()) == list(reference._exact.items())
    assert built._filter._cells == reference._filter._cells
    assert built._tombstones == reference._tombstones == 0
    assert len(built) == len(reference) == len(source)
    assert built.memory_bytes() == reference.memory_bytes()
    assert built.fingerprint() == reference.fingerprint()
    assert built.fingerprint() == table_fingerprint(source)
    assert built == source
    for key, owner in source.items():
        assert built.lookup(key) == owner


@pytest.fixture(scope="module")
def twitter_week_tables():
    """The two tables of each of three weeks of the Twitter workload,
    planned offline on four servers."""
    workload = TwitterWorkload(TwitterConfig(seed=0, tweets_per_week=2_000))
    tables = []
    for week in range(3):
        planned, _ = offline_tables(workload.week_pairs(week), 4)
        tables.extend(planned.values())
    return tables


def test_one_pass_equals_per_key_build_on_twitter_weeks(twitter_week_tables):
    assert all(len(table) > 100 for table in twitter_week_tables)
    for table in twitter_week_tables:
        _assert_same_build(table)


def test_build_time_collisions_land_in_exact_as_before():
    """8-bit fingerprints over about 2k keys: most keys collide with a
    resident one, and the first writer keeps the slot."""
    config = CompactTableConfig(fingerprint_bits=8)
    mapping = {f"user-{i:05d}": i % 5 for i in range(2_000)}
    splits = {"user-00007": (0, 3), "hot": (1, 2, 4)}
    source = RoutingTable(mapping, splits)
    built = CompactRoutingTable.from_table(source, config)
    assert len(built._exact) > 1_000
    _assert_same_build(source, config)


def test_one_pass_equals_per_key_build_on_splits_and_empty():
    _assert_same_build(RoutingTable())
    _assert_same_build(RoutingTable({}, {"k": (0, 1)}))
    _assert_same_build(RoutingTable({1: 0, 1.5: 1, "1": 2, (1,): 3, None: 0}))
