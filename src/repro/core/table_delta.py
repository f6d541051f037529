"""Delta-encoded routing-table propagation (DESIGN.md §13).

PROPAGATE historically shipped the full routing table to every source
instance each round, so control-plane bytes grew linearly with the key
space even when a round moved a handful of keys. A
:class:`TableDelta` instead carries only the changed entries — upserts,
removals, split-set upserts/removals — against a fingerprinted base,
falling back to a full snapshot whenever the delta would be at least as
large as the table itself (or when the manager does not know the base
the receiver holds, e.g. the first round or after an abort resync).

Byte accounting is a *model*, like the rest of the cost layer
(``repro.engine.costs``): ``wire_bytes`` computes what a compact binary
framing would cost without serializing anything, and the manager feeds
those numbers to the executor's control-message metering and the
``propagate_bytes_*`` counters.

The base check is fingerprint-grade, not byte-exact: ``apply`` verifies
``(base length, base fingerprint)`` using the shared XOR fingerprint of
:mod:`repro.core.routing_table`, which both plain and compact tables
maintain. A mismatch raises ``ReconfigurationError`` — the agent counts
it as an anomaly and the manager's abort path resyncs with a full push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.core.compact_table import CompactRoutingTable
from repro.core.routing_table import RoutingTable, table_fingerprint
from repro.errors import ReconfigurationError

#: snapshot frame: magic u32 + flags u8 + entry count u32 + split count u16
SNAPSHOT_HEADER_BYTES = 11
#: delta frame: magic u32 + flags u8 + base fingerprint u64 + base len u32
#: + set count u32 + remove count u32 + split-set count u16 + split-remove u16
DELTA_HEADER_BYTES = 29


#: sentinel distinguishing "absent" from any real owner in diff()
_ABSENT = object()


def key_wire_bytes(key: Hashable) -> int:
    """Modeled encoded size of a key: its canonical ``repr`` in UTF-8
    (the same canonical form routing hashes on)."""
    return len(repr(key).encode("utf-8", "backslashreplace"))


def keys_wire_bytes(keys: Iterable[Hashable]) -> int:
    """:func:`key_wire_bytes` summed over ``keys``, in C."""
    utf8, errors = repeat("utf-8"), repeat("backslashreplace")
    return sum(map(len, map(str.encode, map(repr, keys), utf8, errors)))


def snapshot_wire_bytes(table) -> int:
    """Modeled size of a full-table PROPAGATE payload.

    Plain tables ship raw entries (u16 key length + key bytes + u16
    owner) and the split set (u16 key length + key bytes + u8 member
    count + u16 per member). Compact tables ship their fingerprint
    store and filter verbatim, so their snapshot cost is their modeled
    memory — independent of key length.
    """
    if table is None:
        return SNAPSHOT_HEADER_BYTES
    if isinstance(table, CompactRoutingTable):
        return SNAPSHOT_HEADER_BYTES + table.memory_bytes()
    total = SNAPSHOT_HEADER_BYTES + 4 * len(table)
    total += keys_wire_bytes(table.keys())
    for key, members in table.splits.items():
        total += 2 + key_wire_bytes(key) + 1 + 2 * len(members)
    return total


@dataclass
class TableDelta:
    """A routing-table update as changes against a known base.

    Exactly one of two shapes:

    - **delta** (``snapshot is None``): ``set_entries`` / ``removed_keys``
      / ``set_splits`` / ``removed_splits`` applied to a base matching
      ``(base_len, base_fingerprint)``;
    - **snapshot** (``snapshot`` is a table): the full replacement
      table, applied unconditionally — the fallback when the delta
      would not save bytes or no shared base exists.
    """

    base_fingerprint: int = 0
    base_len: int = 0
    set_entries: Dict[Hashable, int] = field(default_factory=dict)
    removed_keys: Tuple[Hashable, ...] = ()
    set_splits: Dict[Hashable, Tuple[int, ...]] = field(default_factory=dict)
    removed_splits: Tuple[Hashable, ...] = ()
    snapshot: object = None

    @classmethod
    def diff(
        cls,
        old: Optional[RoutingTable],
        new: RoutingTable,
        snapshot_table: object = None,
    ) -> "TableDelta":
        """The delta turning enumerable ``old`` (None = empty) into
        enumerable ``new``, or a snapshot of ``snapshot_table`` (default
        ``new``; pass the compacted twin in compact mode) whenever the
        delta encoding would not be smaller."""
        if old is None:
            old = RoutingTable.empty()
        old_map, new_map = old.mapping, new.mapping
        set_entries = {
            key: owner
            for key, owner in new_map.items()
            if old_map.get(key, _ABSENT) != owner
        }
        removed_keys = tuple(key for key in old_map if key not in new_map)
        old_splits, new_splits = old.splits, new.splits
        set_splits = {
            key: members
            for key, members in new_splits.items()
            if old_splits.get(key) != members
        }
        removed_splits = tuple(
            key for key in old_splits if key not in new_splits
        )
        delta = cls(
            base_fingerprint=table_fingerprint(old),
            base_len=len(old),
            set_entries=set_entries,
            removed_keys=removed_keys,
            set_splits=set_splits,
            removed_splits=removed_splits,
        )
        fallback = snapshot_table if snapshot_table is not None else new
        if delta.wire_bytes() >= snapshot_wire_bytes(fallback):
            return cls(snapshot=fallback)
        return delta

    @property
    def is_snapshot(self) -> bool:
        return self.snapshot is not None

    @property
    def num_changes(self) -> int:
        return (
            len(self.set_entries)
            + len(self.removed_keys)
            + len(self.set_splits)
            + len(self.removed_splits)
        )

    def apply(self, base):
        """The table this delta produces on ``base`` (None = empty).

        Snapshots return the carried table. Deltas verify the base by
        ``(len, fingerprint)`` — raising ``ReconfigurationError`` on
        mismatch so a desynced receiver fails loudly instead of
        applying changes to the wrong table — then build the successor
        without mutating ``base`` (plain bases yield a plain table,
        compact bases a compact one)."""
        if self.snapshot is not None:
            return self.snapshot
        base_len = 0 if base is None else len(base)
        if (
            base_len != self.base_len
            or table_fingerprint(base) != self.base_fingerprint
        ):
            raise ReconfigurationError(
                f"TableDelta base mismatch: delta expects "
                f"(len={self.base_len}, "
                f"fp={self.base_fingerprint:#018x}), receiver holds "
                f"(len={base_len}, fp={table_fingerprint(base):#018x})"
            )
        if isinstance(base, CompactRoutingTable):
            out = base.copy()
            for key, owner in self.set_entries.items():
                out._set(key, owner)
            for key in self.removed_keys:
                out._remove(key)
            for key, members in self.set_splits.items():
                out._set_split(key, members)
            for key in self.removed_splits:
                out._remove_split(key)
            return out
        mapping = dict(base.mapping) if base is not None else {}
        mapping.update(self.set_entries)
        for key in self.removed_keys:
            mapping.pop(key, None)
        splits = dict(base.splits) if base is not None else {}
        splits.update(self.set_splits)
        for key in self.removed_splits:
            splits.pop(key, None)
        return RoutingTable(mapping, splits)

    def wire_bytes(self) -> int:
        """Modeled encoded size: upserts cost u16 key length + key
        bytes + u16 owner, removals u16 + key bytes, split upserts add
        a u8 member count + u16 per member."""
        if self.snapshot is not None:
            return snapshot_wire_bytes(self.snapshot)
        sets, removed = self.set_entries, self.removed_keys
        total = DELTA_HEADER_BYTES + 4 * len(sets) + keys_wire_bytes(sets)
        total += 2 * len(removed) + keys_wire_bytes(removed)
        for key, members in self.set_splits.items():
            total += 2 + key_wire_bytes(key) + 1 + 2 * len(members)
        for key in self.removed_splits:
            total += 2 + key_wire_bytes(key)
        return total

    def __repr__(self) -> str:
        if self.snapshot is not None:
            return f"TableDelta(snapshot of {self.snapshot!r})"
        return (
            f"TableDelta({len(self.set_entries)} set, "
            f"{len(self.removed_keys)} removed, "
            f"{len(self.set_splits)}/{len(self.removed_splits)} splits, "
            f"base len={self.base_len})"
        )
