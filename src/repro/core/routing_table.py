"""Explicit routing tables: key → destination instance.

A routing table overrides hash-based fields grouping for the keys it
contains; unknown keys fall back to the hash policy (Section 3.3:
"When a key is not present in the routing table, it falls back to the
standard hash-based routing policy").

Beyond the paper, a table may carry a *split set*: a small map from
heavy-hitter keys to a tuple of destination instances. A hybrid router
(``repro.engine.grouping.HybridTableRouter``) spreads a split key's
tuples across its members instead of pinning them to one instance —
the skew regime the paper's pure table routing cannot balance. The
split set travels inside the table payload on purpose: every rule that
already governs tables (PROPAGATE swaps, rescale's atomic resize,
route-cache invalidation, routing-agreement checks) then governs the
split set for free.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Hashable, Iterator, Mapping, Optional, Tuple

from repro.engine.grouping import canonical_key, stable_hash_uncached

#: split-set wire format: key → ordered tuple of destination instances
SplitSet = Dict[Hashable, Tuple[int, ...]]

#: seeds separating the fingerprint domains (entries vs split entries)
_ENTRY_FP_SEED = 0x7A3C9F11
_SPLIT_FP_SEED = 0x51C6E40D


def entry_fingerprint(key: Hashable, owner: int) -> int:
    """64-bit fingerprint of one ``key → owner`` mapping entry.

    Keys are read through the ``repr`` of their
    :func:`~repro.engine.grouping.canonical_key` — the form
    :func:`~repro.engine.grouping.stable_hash` routes on — so two
    tables agree on an entry's fingerprint iff they agree on the entry,
    whichever of two equal keys each holds. Hashed once: the
    ``stable_hash`` memo is for routed keys, not table entries.
    """
    return stable_hash_uncached(
        (repr(canonical_key(key)), owner), _ENTRY_FP_SEED
    )


def split_fingerprint(key: Hashable, members: Tuple[int, ...]) -> int:
    """64-bit fingerprint of one split-set entry."""
    return stable_hash_uncached(
        (repr(canonical_key(key)), tuple(members)), _SPLIT_FP_SEED
    )


def table_fingerprint(table) -> int:
    """Order-independent fingerprint of a table, 0 for ``None``/empty.

    ``None`` (a router that never received a table) and the empty table
    fingerprint identically on purpose: both route every key through
    the hash fallback, so a delta diffed against "empty" applies to
    either base (see :class:`repro.core.table_delta.TableDelta`).
    """
    if table is None:
        return 0
    return table.fingerprint()


class RoutingTable:
    """Immutable-by-convention mapping from key to instance index,
    plus an optional heavy-hitter split set."""

    __slots__ = ("_mapping", "_splits", "_fingerprint")

    def __init__(
        self,
        mapping: Optional[Dict[Hashable, int]] = None,
        splits: Optional[Mapping[Hashable, Tuple[int, ...]]] = None,
    ) -> None:
        self._mapping: Dict[Hashable, int] = dict(mapping or {})
        self._splits: SplitSet = {
            key: tuple(members) for key, members in (splits or {}).items()
        }
        self._fingerprint: Optional[int] = None

    @classmethod
    def empty(cls) -> "RoutingTable":
        return cls()

    # ------------------------------------------------------------------
    # Lookup API (consumed by the engine's TableRouter)
    # ------------------------------------------------------------------

    def lookup(self, key: Hashable) -> Optional[int]:
        """Destination instance for ``key``, or None (hash fallback).

        Split keys keep their single-owner entry here (when they have
        one): non-hybrid consumers — ``RescaleSpec.owner_of``, state
        evacuation — deliberately see the consolidated owner.
        """
        return self._mapping.get(key)

    def lookup_many(self, keys) -> list:
        """:meth:`lookup` of every key of ``keys``, in order."""
        return list(map(self._mapping.get, keys))

    def split(self, key: Hashable) -> Optional[Tuple[int, ...]]:
        """The split members of ``key``, or None when it is not split."""
        return self._splits.get(key)

    @property
    def splits(self) -> Mapping[Hashable, Tuple[int, ...]]:
        """Read-only view of the split set: key → member instances."""
        return MappingProxyType(self._splits)

    @property
    def num_split_keys(self) -> int:
        return len(self._splits)

    def split_keys(self) -> Iterator[Hashable]:
        return iter(self._splits)

    def with_splits(
        self, splits: Optional[Mapping[Hashable, Tuple[int, ...]]]
    ) -> "RoutingTable":
        """A copy of this table carrying ``splits`` as its split set."""
        return RoutingTable(self._mapping, splits)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._mapping

    def __len__(self) -> int:
        return len(self._mapping)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._mapping)

    def items(self) -> Iterator[Tuple[Hashable, int]]:
        return iter(self._mapping.items())

    @property
    def mapping(self) -> Mapping[Hashable, int]:
        """Read-only view of the key → owner mapping (no copy)."""
        return MappingProxyType(self._mapping)

    def as_dict(self) -> Dict[Hashable, int]:
        """A mutable copy of the mapping; prefer :attr:`mapping` when a
        read-only view is enough."""
        return dict(self._mapping)

    def fingerprint(self) -> int:
        """Order-independent 64-bit XOR fingerprint over entries and
        split entries, cached after first computation. Two tables with
        equal fingerprints (and equal logical length) are treated as
        equal content — the contract :class:`CompactRoutingTable` and
        :class:`~repro.core.table_delta.TableDelta` base checks rely
        on. Empty tables fingerprint to 0 (matching ``None``)."""
        if self._fingerprint is None:
            acc = 0
            for key, owner in self._mapping.items():
                acc ^= entry_fingerprint(key, owner)
            for key, members in self._splits.items():
                acc ^= split_fingerprint(key, members)
            self._fingerprint = acc
        return self._fingerprint

    def max_instance(self) -> Optional[int]:
        """Highest instance index any entry (or split member) routes
        to, or None for an empty table. A table is valid for width
        ``n`` iff ``max_instance() is None or max_instance() < n`` —
        rescale invariant checks audit exactly this."""
        top: Optional[int] = None
        if self._mapping:
            top = max(self._mapping.values())
        for members in self._splits.values():
            if members:
                widest = max(members)
                top = widest if top is None else max(top, widest)
        return top

    # ------------------------------------------------------------------
    # Diffing (used to build migration lists)
    # ------------------------------------------------------------------

    def moved_keys(
        self, new: "RoutingTable", fallback
    ) -> Dict[Hashable, Tuple[int, int]]:
        """Keys whose single owner changes between ``self`` and ``new``.

        ``fallback(key) -> int`` resolves the owner of keys absent from
        a table (the hash policy); it is invoked lazily, at most once
        per key, and never for a key both tables contain. Returns
        ``{key: (old, new)}`` over the union of both tables' keys, in
        insertion order (``self``'s keys, then ``new``'s): migration
        lists, hence hold/release order and downstream timing, must not
        follow string hashing, which differs from process to process.

        Keys split in *either* table are excluded: a key split in
        ``new`` must not migrate (its partial state stays put and new
        traffic spreads over the members), and a key split only in
        ``self`` consolidates from several holders at once — see
        :meth:`split_consolidations`.
        """
        moved: Dict[Hashable, Tuple[int, int]] = {}
        for key in {**self._mapping, **new._mapping}:  # ordered union
            if key in self._splits or key in new._splits:
                continue
            old_owner = self._mapping.get(key)
            new_owner = new._mapping.get(key)
            if old_owner is None or new_owner is None:
                if old_owner is None and new_owner is None:
                    continue  # both resolve to the same fallback owner
                resolved = fallback(key)
                if old_owner is None:
                    old_owner = resolved
                else:
                    new_owner = resolved
            if old_owner != new_owner:
                moved[key] = (old_owner, new_owner)
        return moved

    def split_consolidations(
        self, new: "RoutingTable", fallback
    ) -> Dict[Hashable, Tuple[Tuple[int, ...], int]]:
        """Keys split in ``self`` but not in ``new``: each must gather
        its partial state from every old member onto its new single
        owner. Returns ``{key: (old_members, new_owner)}``."""
        consolidations: Dict[Hashable, Tuple[Tuple[int, ...], int]] = {}
        for key, members in self._splits.items():
            if key in new._splits:
                continue
            new_owner = new._mapping.get(key)
            if new_owner is None:
                new_owner = fallback(key)
            consolidations[key] = (members, new_owner)
        return consolidations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            # NotImplemented (not False) so that foreign table types —
            # CompactRoutingTable — get the reflected comparison.
            return NotImplemented
        return (
            other._mapping == self._mapping
            and other._splits == self._splits
        )

    def __repr__(self) -> str:
        if self._splits:
            return (
                f"RoutingTable({len(self._mapping)} keys, "
                f"{len(self._splits)} split)"
            )
        return f"RoutingTable({len(self._mapping)} keys)"
