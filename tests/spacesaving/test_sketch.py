"""Unit and property-based tests for the SpaceSaving sketch."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spacesaving import ItemEstimate, SpaceSaving


def test_capacity_validation():
    with pytest.raises(ValueError):
        SpaceSaving(0)


def test_offer_requires_positive_weight():
    sketch = SpaceSaving(4)
    with pytest.raises(ValueError):
        sketch.offer("a", weight=0)


def test_exact_until_capacity():
    sketch = SpaceSaving(capacity=8)
    stream = ["a", "b", "a", "c", "a", "b"]
    for item in stream:
        sketch.offer(item)
    truth = Counter(stream)
    for item, count in truth.items():
        estimate = sketch.estimate(item)
        assert estimate is not None
        assert estimate.count == count
        assert estimate.error == 0
        assert estimate.guaranteed
    assert sketch.n == len(stream)
    assert sketch.max_error() == 0


def test_item_estimate_fields_equality_and_properties():
    estimate = ItemEstimate("c", 5, 2)
    assert (estimate.item, estimate.count, estimate.error) == ("c", 5, 2)
    assert estimate == ItemEstimate("c", 5, 2)
    assert hash(estimate) == hash(ItemEstimate("c", 5, 2))
    assert estimate != ItemEstimate("d", 5, 2)
    assert estimate != ItemEstimate("c", 4, 2)
    assert estimate != ItemEstimate("c", 5, 0)
    assert estimate.lower_bound == 3
    assert not estimate.guaranteed
    assert ItemEstimate("c", 5, 0).guaranteed
    with pytest.raises(AttributeError):
        estimate.count = 6


def test_eviction_inherits_min_count_as_error():
    sketch = SpaceSaving(capacity=2)
    sketch.offer("a")
    sketch.offer("a")
    sketch.offer("b")
    sketch.offer("c")  # evicts b (count 1); c gets count 2, error 1
    estimate = sketch.estimate("c")
    assert estimate == ItemEstimate("c", 2, 1)
    assert sketch.estimate("b") is None
    assert sketch.max_error() >= 1


def test_top_ordering_and_k():
    sketch = SpaceSaving(capacity=16)
    for item, weight in [("x", 10), ("y", 5), ("z", 1)]:
        sketch.offer(item, weight=weight)
    top = sketch.top(2)
    assert [e.item for e in top] == ["x", "y"]
    assert sketch.top(0) == []
    with pytest.raises(ValueError):
        sketch.top(-1)


def test_guaranteed_top_excludes_uncertain_items():
    sketch = SpaceSaving(capacity=2)
    for item in ["a"] * 10 + ["b", "c"]:
        sketch.offer(item)
    guaranteed = sketch.guaranteed_top(1)
    assert [e.item for e in guaranteed] == ["a"]


def test_clear_resets_everything():
    sketch = SpaceSaving(capacity=2)
    for item in ["a", "b", "c"]:
        sketch.offer(item)
    sketch.clear()
    assert sketch.n == 0
    assert len(sketch) == 0
    assert sketch.max_error() == 0
    sketch.offer("d")
    assert sketch.estimate("d").count == 1


def test_merge_combines_counts():
    left = SpaceSaving(capacity=8)
    right = SpaceSaving(capacity=8)
    for _ in range(5):
        left.offer("a")
    for _ in range(3):
        right.offer("a")
    right.offer("b")
    merged = left.merge(right)
    assert merged.n == 9
    assert merged.estimate("a").count == 8
    assert merged.estimate("b").count == 1


def test_merge_is_pessimistic_for_missing_items():
    """An item absent from one full sketch gains that sketch's floor."""
    left = SpaceSaving(capacity=1)
    right = SpaceSaving(capacity=1)
    for _ in range(4):
        left.offer("a")
    for _ in range(6):
        right.offer("b")
    merged = left.merge(right)
    estimate_a = merged.estimate("a")
    if estimate_a is not None:
        # "a" may have occurred up to right.max_error() times in right.
        assert estimate_a.count >= 4
        assert estimate_a.lower_bound <= 4


# ----------------------------------------------------------------------
# Property-based guarantees (the heart of why the paper can afford 1 MB
# of statistics per instance).
# ----------------------------------------------------------------------

item_streams = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=400
)


@given(stream=item_streams, capacity=st.integers(min_value=1, max_value=16))
@settings(max_examples=200, deadline=None)
def test_estimates_always_overestimate(stream, capacity):
    sketch = SpaceSaving(capacity)
    for item in stream:
        sketch.offer(item)
    truth = Counter(stream)
    for estimate in sketch.items():
        true_count = truth[estimate.item]
        assert estimate.count >= true_count
        assert estimate.count - estimate.error <= true_count


@given(stream=item_streams, capacity=st.integers(min_value=1, max_value=16))
@settings(max_examples=200, deadline=None)
def test_error_bounded_by_n_over_m(stream, capacity):
    sketch = SpaceSaving(capacity)
    for item in stream:
        sketch.offer(item)
    bound = sketch.n / capacity
    for estimate in sketch.items():
        assert estimate.error <= bound
    assert sketch.max_error() <= bound


@given(stream=item_streams, capacity=st.integers(min_value=1, max_value=16))
@settings(max_examples=200, deadline=None)
def test_no_false_negatives_above_threshold(stream, capacity):
    """Any item with true count > N/m must be monitored."""
    sketch = SpaceSaving(capacity)
    for item in stream:
        sketch.offer(item)
    threshold = sketch.n / capacity
    truth = Counter(stream)
    for item, count in truth.items():
        if count > threshold:
            assert item in sketch


@given(stream=item_streams)
@settings(max_examples=100, deadline=None)
def test_large_capacity_is_exact(stream):
    sketch = SpaceSaving(capacity=64)
    for item in stream:
        sketch.offer(item)
    truth = Counter(stream)
    assert len(sketch) == len(truth)
    for item, count in truth.items():
        estimate = sketch.estimate(item)
        assert estimate.count == count
        assert estimate.error == 0


@given(
    stream=item_streams,
    capacity=st.integers(min_value=1, max_value=16),
    weights=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_total_count_conserved(stream, capacity, weights):
    """Sum of (count - error) never exceeds N; sum of top counts >= the
    mass of the monitored items."""
    rng = random.Random(42)
    sketch = SpaceSaving(capacity)
    n = 0
    for item in stream:
        weight = rng.randint(1, 3) if weights else 1
        sketch.offer(item, weight=weight)
        n += weight
    assert sketch.n == n
    lower_mass = sum(e.lower_bound for e in sketch.items())
    assert lower_mass <= n


def test_zipf_stream_identifies_heavy_hitters():
    """On a skewed stream, a small sketch finds the true heavy hitters —
    the scenario the paper relies on (Section 3.2)."""
    rng = random.Random(7)
    population = list(range(1000))
    weights = [1.0 / (rank + 1) for rank in range(1000)]
    stream = rng.choices(population, weights=weights, k=20000)
    truth = Counter(stream)
    sketch = SpaceSaving(capacity=100)
    for item in stream:
        sketch.offer(item)
    true_top10 = {item for item, _ in truth.most_common(10)}
    sketched_top = {e.item for e in sketch.top(30)}
    assert true_top10 <= sketched_top
