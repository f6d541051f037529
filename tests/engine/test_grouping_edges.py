"""Router edge cases: zero-destination validation, resize seams,
send-counter resets, and the hybrid (split-set) router."""

import pytest

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
    stable_hash,
)
from repro.errors import RoutingError


def _context(dst_placements, src_server=0, src_instance=0, seed=7):
    return RouterContext(
        stream_name="edge-test",
        src_instance=src_instance,
        src_server=src_server,
        dst_placements=dst_placements,
        seed=seed,
    )


class _DictTable:
    """Duck-typed lookup-only table (no split set)."""

    def __init__(self, mapping):
        self._mapping = mapping

    def lookup(self, key):
        return self._mapping.get(key)


# ----------------------------------------------------------------------
# Zero destinations: every grouping must fail fast, naming the stream
# ----------------------------------------------------------------------

ALL_GROUPINGS = [
    ShuffleGrouping(),
    LocalOrShuffleGrouping(),
    FieldsGrouping(0),
    TableFieldsGrouping(0),
    HybridTableFieldsGrouping(0),
    GlobalGrouping(),
    BroadcastGrouping(),
    PartialKeyGrouping(0),
    CustomGrouping(lambda values, context: 0),
]


@pytest.mark.parametrize(
    "grouping", ALL_GROUPINGS, ids=lambda g: type(g).__name__
)
def test_zero_destinations_raises_naming_the_stream(grouping):
    with pytest.raises(RoutingError) as err:
        grouping.build_router(_context([]))
    assert "edge-test" in str(err.value)
    assert "no destination" in str(err.value)


@pytest.mark.parametrize(
    "grouping", ALL_GROUPINGS, ids=lambda g: type(g).__name__
)
def test_single_destination_routes_to_zero(grouping):
    router = grouping.build_router(_context([0]))
    assert router.select(("k",)) == [0]


# ----------------------------------------------------------------------
# Resize seams (rescale support)
# ----------------------------------------------------------------------


def test_shuffle_router_resize_stays_in_range():
    router = ShuffleGrouping().build_router(_context([0, 1, 2, 3]))
    for _ in range(5):
        router.select(("x",))
    router.resize(2)
    picks = {router.select(("x",))[0] for _ in range(8)}
    assert picks == {0, 1}
    with pytest.raises(RoutingError):
        router.resize(0)


def test_hash_router_resize_drops_cached_routes():
    router = FieldsGrouping(0).build_router(_context([0] * 5))
    before = router.select(("k",))[0]
    assert before == stable_hash("k", 7) % 5
    router.resize(3)
    # A stale cached route would repeat the %5 destination.
    assert router.select(("k",))[0] == stable_hash("k", 7) % 3
    with pytest.raises(RoutingError):
        router.resize(0)


def test_table_router_resize_swaps_width_and_table_atomically():
    router = TableFieldsGrouping(
        0, table=RoutingTable({"k": 3})
    ).build_router(_context([0] * 4))
    assert router.select(("k",)) == [3]
    router.resize(2, RoutingTable({"k": 1}))
    assert router.select(("k",)) == [1]
    assert router.num_destinations == 2
    with pytest.raises(RoutingError):
        router.resize(0, RoutingTable())


def test_dchoices_router_resize_redimensions_and_drops_cache():
    router = PartialKeyGrouping(0, d=2).build_router(_context([0] * 6))
    for _ in range(10):
        router.select(("k",))
    router.resize(2)
    assert router.sent_counts == [0, 0]
    picks = {router.select(("k",))[0] for _ in range(10)}
    assert picks <= {0, 1}
    with pytest.raises(RoutingError):
        router.resize(0)


def test_custom_router_has_no_resize_seam():
    """CustomGrouping routers cannot survive a rescale: ``resize``
    fails fast, naming the stream and the router, instead of letting
    it route on with a stale modulus."""
    router = CustomGrouping(lambda values, context: 0).build_router(
        _context([0, 1])
    )
    with pytest.raises(
        RoutingError, match="'edge-test': _CustomRouter has no resize seam"
    ):
        router.resize(2)


@pytest.mark.parametrize(
    "grouping",
    [LocalOrShuffleGrouping(), GlobalGrouping(), BroadcastGrouping()],
    ids=["local-or-shuffle", "global", "broadcast"],
)
def test_policies_with_no_width_to_follow_refuse_resize(grouping):
    router = grouping.build_router(_context([0, 1]))
    name = type(router).__name__
    with pytest.raises(RoutingError, match=f"{name} has no resize seam"):
        router.resize(3)


# ----------------------------------------------------------------------
# d-choices send counters
# ----------------------------------------------------------------------


def test_dchoices_reset_sent_zeroes_counters():
    router = PartialKeyGrouping(0, d=2).build_router(_context([0] * 4))
    for _ in range(12):
        router.select(("hot",))
    assert sum(router.sent_counts) == 12
    router.reset_sent()
    assert router.sent_counts == [0, 0, 0, 0]


def test_dchoices_spreads_a_single_key_over_its_candidates():
    context = _context([0] * 8)
    router = PartialKeyGrouping(0, d=3).build_router(context)
    candidates = set(candidate_instances("hot", context.seed, 8, 3))
    picks = [router.select(("hot",))[0] for _ in range(30)]
    assert set(picks) == candidates
    counts = router.sent_counts
    used = [counts[i] for i in candidates]
    assert max(used) - min(used) <= 1  # least-loaded keeps them level


def test_partial_key_grouping_rejects_d_below_two():
    with pytest.raises(RoutingError):
        PartialKeyGrouping(0, d=1)


def test_candidate_instances_first_choice_matches_hash_routing():
    """Candidate 0 is the plain hash destination, so d-choices is a
    strict generalization of fields grouping."""
    for key in ("a", "b", 17, None):
        assert (
            candidate_instances(key, 7, 5, 3)[0] == stable_hash(key, 7) % 5
        )


# ----------------------------------------------------------------------
# Hybrid router: split-set handling
# ----------------------------------------------------------------------


def _hybrid(table, n=3):
    return HybridTableFieldsGrouping(0, table=table).build_router(
        _context([0] * n)
    )


def test_hybrid_split_key_alternates_over_members():
    router = _hybrid(RoutingTable({}, {"hot": (0, 1)}))
    picks = [router.select(("hot",))[0] for _ in range(6)]
    assert picks == [0, 1, 0, 1, 0, 1]
    assert router.split_routes == 6
    assert router.sent_counts == [3, 3, 0]


def test_hybrid_split_choice_accounts_for_tail_load():
    router = _hybrid(RoutingTable({"t": 0}, {"hot": (0, 1)}))
    for _ in range(5):
        assert router.select(("t",)) == [0]
    # Member 0 already carries 5 tail tuples: the hot key should lean
    # on member 1 until the loads level out.
    picks = [router.select(("hot",))[0] for _ in range(4)]
    assert picks == [1, 1, 1, 1]
    assert router.sent_counts == [5, 4, 0]


def test_hybrid_split_members_filtered_to_range():
    router = _hybrid(RoutingTable({}, {"hot": (1, 9)}))
    assert router.select(("hot",)) == [1]
    with pytest.raises(RoutingError):
        _hybrid(RoutingTable({}, {"hot": (7, 9)})).select(("hot",))


def test_hybrid_tail_keys_route_like_table_router():
    router = _hybrid(RoutingTable({"t": 2}, {"hot": (0, 1)}))
    assert router.select(("t",)) == [2]
    assert router.select(("t",)) == [2]
    assert router.table_hits == 2
    unknown = router.select(("u",))[0]
    assert unknown == stable_hash("u", 7) % 3
    assert router.hash_fallbacks == 1
    assert router.split_routes == 0


def test_hybrid_degrades_on_lookup_only_tables():
    """A duck-typed table without a split set must behave exactly like
    a plain TableRouter (no crash on a missing ``split`` attribute)."""
    router = _hybrid(_DictTable({"t": 1}))
    assert router.select(("t",)) == [1]
    assert router.table_hits == 1
    assert router.split_routes == 0


def test_hybrid_update_table_resets_counters_and_split_set():
    router = _hybrid(RoutingTable({}, {"hot": (0, 1)}))
    for _ in range(4):
        router.select(("hot",))
    assert sum(router.sent_counts) == 4
    router.update_table(RoutingTable({"hot": 2}))
    # Pre-swap load is forgotten and the key is no longer split.
    assert router.sent_counts == [0, 0, 0]
    assert router.select(("hot",)) == [2]
    assert router.split_routes == 4  # unchanged: telemetry, not load


def test_hybrid_resize_resets_counters_and_split_set():
    router = _hybrid(RoutingTable({}, {"hot": (0, 1)}), n=2)
    for _ in range(4):
        router.select(("hot",))
    router.resize(4, RoutingTable({}, {"hot": (2, 3)}))
    assert router.sent_counts == [0, 0, 0, 0]
    picks = {router.select(("hot",))[0] for _ in range(4)}
    assert picks == {2, 3}
