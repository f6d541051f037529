"""Unit tests: CompactRoutingTable (DESIGN.md §13).

The compact table must be a drop-in for RoutingTable on the data
plane: exact lookups for resident keys, split-set parity, fingerprint
equality across representations — with the single documented
approximation (absent keys may falsely route) held under the
configured budget.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompactRoutingTable, CompactTableConfig, RoutingTable
from repro.core.compact_table import KeyFilter, plain_table_memory_bytes
from repro.engine import grouping
from repro.engine.grouping import clear_stable_hash_memo
from repro.errors import ReconfigurationError


def _random_mapping(n, width=8, seed=0):
    rng = random.Random(seed)
    return {f"user-{i:07d}": rng.randrange(width) for i in range(n)}


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------


def test_filter_has_no_false_negatives_and_supports_removal():
    f = KeyFilter(1000, bits_per_key=12, hashes=6)
    keys = [f"k{i}" for i in range(1000)]
    for key in keys:
        f.add(key)
    assert all(key in f for key in keys)
    for key in keys[:500]:
        f.discard(key)
    # no false negatives on the survivors
    assert all(key in f for key in keys[500:])


def test_filter_false_positive_rate_is_near_model():
    f = KeyFilter(2000, bits_per_key=12, hashes=6)
    for i in range(2000):
        f.add(f"present-{i}")
    hits = sum(1 for i in range(20_000) if f"absent-{i}" in f)
    measured = hits / 20_000
    model = f.false_positive_rate(2000)
    assert measured < 5 * model + 1e-3


# ----------------------------------------------------------------------
# Lookup exactness and API parity
# ----------------------------------------------------------------------


def test_resident_lookups_are_exact():
    mapping = _random_mapping(20_000)
    compact = CompactRoutingTable(mapping)
    assert len(compact) == len(mapping)
    for key, owner in mapping.items():
        assert compact.lookup(key) == owner
        assert key in compact


def test_absent_keys_fall_back_within_budget():
    mapping = _random_mapping(20_000)
    compact = CompactRoutingTable(mapping)
    absent = [f"ghost-{i}" for i in range(20_000)]
    false_routes = sum(1 for key in absent if compact.lookup(key) is not None)
    assert compact.within_budget()
    # 20k trials at a ~1e-7 expected rate: a handful of hits would
    # already be a broken filter, not bad luck
    assert false_routes <= 3
    assert compact.filter_rejects > 0


def test_split_parity_and_max_instance():
    mapping = {"a": 0, "b": 1, "c": 2}
    splits = {"hot": (1, 5)}
    plain = RoutingTable(mapping, splits)
    compact = CompactRoutingTable.from_table(plain)
    assert compact.split("hot") == (1, 5)
    assert compact.split("a") is None
    assert dict(compact.splits) == splits
    assert compact.num_split_keys == 1
    assert compact.max_instance() == plain.max_instance() == 5
    replaced = compact.with_splits({"b": (0, 3)})
    assert replaced.split("hot") is None
    assert replaced.split("b") == (0, 3)
    assert replaced == plain.with_splits({"b": (0, 3)})


def test_cross_representation_equality_both_directions():
    mapping = _random_mapping(5000)
    splits = {"hot": (0, 1)}
    plain = RoutingTable(mapping, splits)
    compact = CompactRoutingTable.from_table(plain)
    assert compact == plain
    assert plain == compact  # via reflected __eq__ (NotImplemented)
    other = RoutingTable(dict(mapping, extra=3), splits)
    assert compact != other
    assert other != compact


def test_compact_and_plain_tables_agree_on_equal_keys():
    """A key equal to a table's key is that key: both representations
    look ``True``, ``1.0`` and ``(True, "x")`` up as the entries of
    ``1`` and ``(1, "x")``, and tables holding equal keys fingerprint
    alike. Text and int keys keep the fingerprints they always had."""
    mapping = {1: 3, (1, "x"): 2}
    plain, compact = RoutingTable(mapping), CompactRoutingTable(mapping)
    for table in (plain, compact):
        assert [table.lookup(k) for k in (True, 1.0, (True, "x"))] == [3, 3, 2]
    respelled = RoutingTable({True: 3, (1.0, "x"): 2})
    assert plain.fingerprint() == compact.fingerprint()
    assert respelled.fingerprint() == plain.fingerprint()
    pinned = RoutingTable(
        {"Asia": 1, 7: 0, "Zürich": 2}, splits={"hot": (0, 2), 5: (1,)}
    )
    assert pinned.fingerprint() == 1046998182793117453
    assert CompactRoutingTable.from_table(pinned).fingerprint() == (
        1046998182793117453
    )
    # entries are hashed once: none lands in the routed keys' memo
    clear_stable_hash_memo()
    RoutingTable({f"k{i}": i % 3 for i in range(50)}).fingerprint()
    assert not grouping._HASH_MEMO


def test_enumeration_raises_loudly():
    """Planning runs on plain tables (DESIGN §13): a compact table can
    neither list its keys nor be diffed, and says so in one voice."""
    compact = CompactRoutingTable({"a": 1}, {"s": (0, 1)})
    new = RoutingTable({"a": 2})
    for call in (
        compact.keys,
        compact.items,
        compact.as_dict,
        lambda: compact.moved_keys(new, lambda key: 0),
        lambda: compact.split_consolidations(new, lambda key: 0),
    ):
        with pytest.raises(TypeError, match="plan with plain RoutingTable"):
            call()


def test_config_validation():
    with pytest.raises(ReconfigurationError):
        CompactTableConfig(fingerprint_bits=4)
    with pytest.raises(ReconfigurationError):
        CompactTableConfig(filter_hashes=0)
    with pytest.raises(ReconfigurationError):
        CompactTableConfig(false_route_budget=0.0)


# ----------------------------------------------------------------------
# Memory model
# ----------------------------------------------------------------------


def test_memory_model_is_bounded_and_key_length_independent():
    short = CompactRoutingTable(_random_mapping(10_000))
    long_keys = {f"session/{'x' * 64}/{i:07d}": i % 8 for i in range(10_000)}
    long = CompactRoutingTable(long_keys)
    # compact memory ignores key length; the plain model does not
    assert long.table_bytes() == short.table_bytes()
    assert plain_table_memory_bytes(
        RoutingTable(long_keys)
    ) > 2 * plain_table_memory_bytes(RoutingTable(_random_mapping(10_000)))
    # bounded bytes/key at the default config
    assert short.memory_bytes() / len(short) < 25


# ----------------------------------------------------------------------
# Property: false-route rate stays under budget across configurations
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    width=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_false_route_rate_under_budget_property(n, width, seed):
    mapping = _random_mapping(n, width, seed)
    compact = CompactRoutingTable(mapping)
    assert compact.expected_false_route_rate() <= (
        compact.config.false_route_budget
    )
    for key, owner in mapping.items():
        assert compact.lookup(key) == owner
    absent = [f"phantom-{seed}-{i}" for i in range(2000)]
    false_routes = sum(1 for key in absent if compact.lookup(key) is not None)
    assert false_routes <= 2
