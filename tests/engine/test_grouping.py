"""Tests for routing policies (groupings and routers)."""

from collections import Counter

import pytest

from repro.engine.grouping import (
    BroadcastGrouping,
    CustomGrouping,
    FieldsGrouping,
    GlobalGrouping,
    LocalOrShuffleGrouping,
    PartialKeyGrouping,
    RouterContext,
    ShuffleGrouping,
    TableFieldsGrouping,
    normalize_key_fn,
    stable_hash,
)
from repro.errors import RoutingError


def _context(dst_placements, src_server=0, src_instance=0, seed=7):
    return RouterContext(
        stream_name="test",
        src_instance=src_instance,
        src_server=src_server,
        dst_placements=dst_placements,
        seed=seed,
    )


class _DictTable:
    def __init__(self, mapping):
        self._mapping = mapping

    def lookup(self, key):
        return self._mapping.get(key)


def test_normalize_key_fn_from_index():
    fn = normalize_key_fn(1)
    assert fn(("a", "b", "c")) == "b"


def test_normalize_key_fn_from_callable():
    fn = normalize_key_fn(lambda values: values[0].upper())
    assert fn(("x",)) == "X"


def test_normalize_key_fn_from_any_integer_type():
    # e.g. a column index computed with numpy
    np = pytest.importorskip("numpy")
    fn = normalize_key_fn(np.int64(1))
    assert fn(("a", "b", "c")) == "b"


def test_normalize_key_fn_rejects_other():
    with pytest.raises(RoutingError):
        normalize_key_fn("field")
    with pytest.raises(RoutingError):
        normalize_key_fn(1.0)


def test_stable_hash_deterministic_and_seeded():
    assert stable_hash("Asia") == stable_hash("Asia")
    assert stable_hash("Asia", 1) != stable_hash("Asia", 2)
    assert stable_hash(("Asia", 3)) == stable_hash(("Asia", 3))


def test_shuffle_round_robin():
    router = ShuffleGrouping().build_router(_context([0, 1, 2]))
    picks = [router.select(("x",))[0] for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_shuffle_different_sources_start_offset():
    context = _context([0, 1, 2], src_instance=1)
    router = ShuffleGrouping().build_router(context)
    assert router.select(("x",)) == [1]


def test_local_or_shuffle_prefers_local():
    # Destinations on servers [0, 1, 0]: sender on server 0 must always
    # pick instance 0 or 2.
    router = LocalOrShuffleGrouping().build_router(
        _context([0, 1, 0], src_server=0)
    )
    picks = {router.select(("x",))[0] for _ in range(10)}
    assert picks <= {0, 2}
    assert len(picks) == 2  # round-robins over the local ones


def test_local_or_shuffle_falls_back_to_shuffle():
    router = LocalOrShuffleGrouping().build_router(
        _context([1, 2], src_server=0)
    )
    picks = [router.select(("x",))[0] for _ in range(4)]
    assert sorted(set(picks)) == [0, 1]


def test_fields_grouping_is_deterministic_per_key():
    router = FieldsGrouping(0).build_router(_context([0, 1, 2]))
    for key in ["a", "b", "c", 42]:
        first = router.select((key,))
        for _ in range(5):
            assert router.select((key,)) == first


def test_fields_grouping_spreads_keys():
    router = FieldsGrouping(0).build_router(_context([0] * 8))
    counts = Counter(router.select((f"key{i}",))[0] for i in range(1000))
    assert len(counts) == 8
    assert max(counts.values()) < 1000 * 0.25


def test_table_fields_routing_and_fallback():
    table = _DictTable({"a": 2, "b": 0})
    router = TableFieldsGrouping(0, table=table).build_router(
        _context([0, 1, 2])
    )
    assert router.select(("a",)) == [2]
    assert router.select(("b",)) == [0]
    # Unknown key: hash fallback, deterministic.
    fallback = router.select(("unknown",))
    assert router.select(("unknown",)) == fallback


def test_table_router_hot_swap():
    router = TableFieldsGrouping(0, table=_DictTable({"a": 0})).build_router(
        _context([0, 1])
    )
    assert router.select(("a",)) == [0]
    router.update_table(_DictTable({"a": 1}))
    assert router.select(("a",)) == [1]


def test_table_router_rejects_out_of_range_instance():
    router = TableFieldsGrouping(0, table=_DictTable({"a": 9})).build_router(
        _context([0, 1])
    )
    with pytest.raises(RoutingError):
        router.select(("a",))


def test_table_router_none_table_hashes():
    router = TableFieldsGrouping(0).build_router(_context([0, 1, 2]))
    assert len(router.select(("k",))) == 1


def test_global_grouping():
    router = GlobalGrouping().build_router(_context([0, 1, 2]))
    assert router.select(("x",)) == [0]


def test_broadcast_grouping():
    router = BroadcastGrouping().build_router(_context([0, 1, 2]))
    assert router.select(("x",)) == [0, 1, 2]


def test_partial_key_grouping_uses_two_choices():
    router = PartialKeyGrouping(0).build_router(_context([0] * 6))
    destinations = {router.select(("hot",))[0] for _ in range(50)}
    assert 1 <= len(destinations) <= 2


def test_partial_key_grouping_balances_better_than_hash():
    hash_router = FieldsGrouping(0).build_router(_context([0] * 4, seed=1))
    pkg_router = PartialKeyGrouping(0).build_router(_context([0] * 4, seed=1))
    # Zipf-ish skew: one very hot key.
    stream = ["hot"] * 500 + [f"k{i}" for i in range(500)]
    hash_loads = Counter(hash_router.select((k,))[0] for k in stream)
    pkg_loads = Counter(pkg_router.select((k,))[0] for k in stream)
    assert max(pkg_loads.values()) < max(hash_loads.values())


def test_custom_grouping_scalar_and_list():
    router = CustomGrouping(lambda values, ctx: values[0]).build_router(
        _context([0, 1, 2])
    )
    assert router.select((2,)) == [2]
    router = CustomGrouping(lambda values, ctx: [0, 2]).build_router(
        _context([0, 1, 2])
    )
    assert router.select((0,)) == [0, 2]
