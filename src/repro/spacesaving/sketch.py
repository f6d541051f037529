"""The SpaceSaving sketch (Metwally, Agrawal, El Abbadi — ICDT'05).

SpaceSaving maintains approximate counts for the most frequent items of a
stream using at most ``capacity`` counters. Its guarantees, with ``N`` the
total stream weight and ``m`` the capacity:

- every estimate *overestimates*: ``true <= count``;
- the overestimation is bounded: ``count - error <= true`` and
  ``error <= N / m``;
- any item with true frequency above ``N / m`` is monitored (no false
  negatives among genuinely frequent items).

The paper (Section 3.2) uses one sketch per operator instance to track
the frequency of *(input key, output key)* pairs with a bounded memory
budget, typically a few MB per instance.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, NamedTuple, Optional

from repro.spacesaving.summary import StreamSummary


class ItemEstimate(NamedTuple):
    """An estimated counter for one monitored item (a named tuple: a
    sketch builds one per monitored item each time it is read).

    Attributes
    ----------
    item:
        The monitored value (any hashable).
    count:
        Estimated frequency; never less than the true frequency.
    error:
        Maximum overestimation: ``count - error <= true <= count``.
    """

    item: Hashable
    count: int
    error: int

    @property
    def lower_bound(self) -> int:
        """Guaranteed minimum true frequency of the item."""
        return self.count - self.error

    @property
    def guaranteed(self) -> bool:
        """True when the estimate is exact (the item never got evicted)."""
        return self.error == 0


class SpaceSaving:
    """Approximate top-k frequency counting in bounded memory.

    Parameters
    ----------
    capacity:
        Number of counters to maintain. Memory use is O(capacity).

    Examples
    --------
    >>> sketch = SpaceSaving(capacity=2)
    >>> for item in ["a", "a", "b", "c", "a"]:
    ...     sketch.offer(item)
    >>> sketch.top(1)[0].item
    'a'
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._summary = StreamSummary(capacity)
        self._n = 0

    # ------------------------------------------------------------------
    # Stream ingestion
    # ------------------------------------------------------------------

    def offer(self, item: Hashable, weight: int = 1) -> None:
        """Record ``weight`` occurrences of ``item``."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self._n += weight
        summary = self._summary
        if summary.increment_if_present(item, weight) is None:
            if not summary.full:
                summary.insert(item, count=weight, error=0)
            else:
                # Replace the least-frequent monitored item: the
                # newcomer inherits its count as error (it may have
                # occurred up to min_count times before being
                # monitored).
                min_count = summary.min_count()
                summary.replace_min(
                    item, count=min_count + weight, error=min_count
                )

    def clear(self) -> None:
        """Reset the sketch, as done after each reconfiguration so that
        only recent data influences the next routing decision."""
        self._summary.clear()
        self._n = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._summary.capacity

    @property
    def n(self) -> int:
        """Total stream weight observed since the last clear()."""
        return self._n

    def __len__(self) -> int:
        return len(self._summary)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._summary

    def estimate(self, item: Hashable) -> Optional[ItemEstimate]:
        """Estimate for a monitored item, or None if not monitored."""
        if item not in self._summary:
            return None
        count, error = self._summary.count_of(item)
        return ItemEstimate(item, count, error)

    def max_error(self) -> int:
        """Upper bound on the count of any item *not* monitored."""
        if not self._summary.full:
            return 0
        return self._summary.min_count()

    def items(self) -> Iterator[ItemEstimate]:
        """All monitored items, most frequent first."""
        return map(ItemEstimate._make, self._summary.items_descending())

    def top(self, k: int) -> List[ItemEstimate]:
        """The ``k`` highest-count estimates, most frequent first."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        result: List[ItemEstimate] = []
        for estimate in self.items():
            if len(result) >= k:
                break
            result.append(estimate)
        return result

    def guaranteed_top(self, k: int) -> List[ItemEstimate]:
        """The subset of ``top(k)`` guaranteed to be true top-k members.

        An item is guaranteed when its lower bound is at least the
        estimated count of the (k+1)-th item.
        """
        estimates = self.top(k + 1)
        if len(estimates) <= k:
            return estimates[:k]
        threshold = estimates[k].count
        return [e for e in estimates[:k] if e.lower_bound >= threshold]

    # ------------------------------------------------------------------
    # Merging (used when the manager combines per-instance sketches)
    # ------------------------------------------------------------------

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Combine two sketches into a new one of this sketch's capacity.

        Follows the pessimistic merge of Agarwal et al.: an item missing
        from one sketch contributes that sketch's ``max_error()`` as both
        count and error, preserving the overestimation invariant
        ``true <= count`` and ``count - error <= true``.
        """
        combined: dict = {}
        self_floor = self.max_error()
        other_floor = other.max_error()
        for estimate in self.items():
            combined[estimate.item] = [estimate.count, estimate.error]
        for estimate in other.items():
            entry = combined.get(estimate.item)
            if entry is None:
                combined[estimate.item] = [
                    estimate.count + self_floor,
                    estimate.error + self_floor,
                ]
            else:
                entry[0] += estimate.count
                entry[1] += estimate.error
        for item, entry in combined.items():
            if item not in other:
                entry[0] += other_floor
                entry[1] += other_floor

        merged = SpaceSaving(self.capacity)
        merged._n = self._n + other._n
        ranked = sorted(combined.items(), key=lambda kv: kv[1][0], reverse=True)
        for item, (count, error) in ranked[: self.capacity]:
            merged._summary.insert(item, count=count, error=error)
        return merged

    def __repr__(self) -> str:
        return (
            f"SpaceSaving(capacity={self.capacity}, monitored={len(self)}, "
            f"n={self._n})"
        )
