"""Memory-bounded routing tables for million-key deployments.

A plain :class:`~repro.core.routing_table.RoutingTable` keeps every raw
key alive in a Python dict — ~100+ bytes/key of interpreter overhead and
unbounded with key length. At the ROADMAP's million-user scale that is
the dominant memory cost of a routed stream, so this module trades exact
membership for a *bounded false-route budget* (DESIGN.md §13):

- a **counting-Bloom front filter** answers "does this key have an
  explicit route?" before any lookup; absent keys short-circuit to the
  hash fallback without touching the entry store, and counting (rather
  than plain) bits let delta removals take effect;
- an **open-addressing fingerprint store** maps a ``fingerprint_bits``
  hash of the key — not the key itself — to its owner, so entry size is
  independent of key length;
- an **exact side-dict** absorbs build-time fingerprint collisions, so
  two distinct resident keys never share a slot.

The result answers ``lookup`` exactly for every key the table contains.
The only approximation is one-sided: a key *not* in the table can pass
the filter AND match a resident fingerprint with probability
``filter_fpr × len/2**fingerprint_bits`` — the *false-route rate* — in
which case it routes to some table owner instead of its hash owner.
That is safe by construction (the key's state simply lives on that
owner, exactly as if the manager had pinned it) and is surfaced as the
``compact_expected_false_route_rate`` gauge against the configured
``false_route_budget``.

Compact tables are **payload-side** objects: the manager plans with
plain enumerable tables and compacts at the wire boundary
(``Manager._encode_table_update``), so diffing/planning never needs to
enumerate a compact table. Cross-representation equality — required by
the invariant suite's routing-agreement check — goes through the shared
XOR fingerprint of :mod:`repro.core.routing_table`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Hashable, Iterator, Mapping, Optional, Tuple

from repro.core.routing_table import (
    RoutingTable,
    SplitSet,
    entry_fingerprint,
    split_fingerprint,
)
from repro.engine.grouping import stable_hash
from repro.errors import ReconfigurationError

#: seeds separating the filter's position stream from the entry
#: fingerprint stream (both derive from one stable_hash call per key)
_FILTER_SEED = 0x2F0E1B85
_KEY_FP_SEED = 0x6B7D3A29

#: slot states in the fingerprint store; stored fingerprints are
#: remapped to ``(raw & mask) + 2`` so they never collide with these
_EMPTY = 0
_TOMBSTONE = 1


@dataclass(frozen=True)
class CompactTableConfig:
    """Memory/accuracy knobs for :class:`CompactRoutingTable`.

    The defaults target a ≤1e-4 false-route budget at 1M keys:
    expected rate ≈ filter_fpr(12 bits/key, 6 hashes) × n/2**32
    ≈ 3.7e-3 × 2.3e-4 ≈ 8.6e-7 (see DESIGN.md §13 for the model).
    """

    #: bits of key fingerprint stored per entry (8..60)
    fingerprint_bits: int = 32
    #: counting-filter cells per key (classic Bloom "bits per key")
    filter_bits_per_key: int = 12
    #: filter hash functions (Kirsch-Mitzenmacher double hashing)
    filter_hashes: int = 6
    #: acceptable probability that an absent key is falsely routed
    false_route_budget: float = 1e-4

    def __post_init__(self) -> None:
        if not 8 <= self.fingerprint_bits <= 60:
            raise ReconfigurationError(
                f"fingerprint_bits must be in [8, 60], got "
                f"{self.fingerprint_bits}"
            )
        if self.filter_bits_per_key < 1:
            raise ReconfigurationError(
                f"filter_bits_per_key must be >= 1, got "
                f"{self.filter_bits_per_key}"
            )
        if self.filter_hashes < 1:
            raise ReconfigurationError(
                f"filter_hashes must be >= 1, got {self.filter_hashes}"
            )
        if not 0.0 < self.false_route_budget <= 1.0:
            raise ReconfigurationError(
                f"false_route_budget must be in (0, 1], got "
                f"{self.false_route_budget}"
            )


class KeyFilter:
    """Counting Bloom filter over routing keys.

    Cells are 8-bit saturating counters in this implementation (a
    ``bytearray`` keeps the hot path simple); the wire/memory model
    charges the canonical 4 bits per cell (DESIGN.md §13). A counter
    that saturates at 255 sticks there — ``discard`` never decrements a
    saturated cell, preserving the no-false-negative guarantee at the
    cost of a permanently-set cell (vanishingly rare at sane sizing).
    """

    __slots__ = ("_cells", "_num_cells", "_num_hashes")

    def __init__(self, capacity_keys: int, bits_per_key: int, hashes: int):
        self._num_cells = max(8, capacity_keys * bits_per_key)
        self._cells = bytearray(self._num_cells)
        self._num_hashes = hashes

    def _positions(self, key: Hashable) -> Tuple[int, ...]:
        # one stable_hash per key; h1/h2 double hashing derives all
        # probe positions (Kirsch-Mitzenmacher)
        h = stable_hash(key, _FILTER_SEED)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        m = self._num_cells
        return tuple((h1 + i * h2) % m for i in range(self._num_hashes))

    def add(self, key: Hashable) -> None:
        cells = self._cells
        for pos in self._positions(key):
            if cells[pos] < 255:
                cells[pos] += 1

    def discard(self, key: Hashable) -> None:
        cells = self._cells
        for pos in self._positions(key):
            if 0 < cells[pos] < 255:
                cells[pos] -= 1

    def __contains__(self, key: Hashable) -> bool:
        cells = self._cells
        return all(cells[pos] for pos in self._positions(key))

    def false_positive_rate(self, num_keys: int) -> float:
        """Classic Bloom estimate ``(1 - e^{-kn/m})^k`` for the current
        sizing holding ``num_keys`` keys."""
        if num_keys <= 0:
            return 0.0
        k = self._num_hashes
        load = k * num_keys / self._num_cells
        return (1.0 - math.exp(-load)) ** k

    @property
    def model_bytes(self) -> int:
        """Modeled memory: 4-bit counters, two cells per byte."""
        return (self._num_cells + 1) // 2


class CompactRoutingTable:
    """Fingerprint-compressed routing table behind a membership filter.

    Duck-type compatible with :class:`RoutingTable` for every consumer
    on the data plane and the reconfiguration protocol: ``lookup``,
    ``split``, ``splits``, ``max_instance``, ``__len__``,
    ``__contains__``, ``fingerprint`` and ``__eq__``. It deliberately
    does **not** enumerate keys, nor diff against another table
    (``keys``/``items``/``as_dict``/``moved_keys``/
    ``split_consolidations`` raise): raw keys are gone after
    construction — that is the point. Manager-side planning therefore
    always runs on plain tables; compact tables exist from the wire
    boundary outward (see module docstring).

    Split keys stay raw: the split set is by design tiny (heavy
    hitters), and hybrid routing needs the exact member tuples.
    """

    #: a lookup is two hashes, a filter probe and a slot scan (≈3 µs):
    #: a ``TableRouter`` holding this table memoizes in front of it
    lookup_is_expensive = True

    __slots__ = (
        "_config",
        "_mask",
        "_fps",
        "_owners",
        "_capacity",
        "_tombstones",
        "_len",
        "_exact",
        "_splits",
        "_filter",
        "_fingerprint",
        "lookups",
        "filter_rejects",
        "filter_false_positives",
    )

    def __init__(
        self,
        mapping: Optional[Mapping[Hashable, int]] = None,
        splits: Optional[Mapping[Hashable, Tuple[int, ...]]] = None,
        config: Optional[CompactTableConfig] = None,
    ) -> None:
        self._config = config or CompactTableConfig()
        self._mask = (1 << self._config.fingerprint_bits) - 1
        self._splits: SplitSet = {
            key: tuple(members) for key, members in (splits or {}).items()
        }
        items = dict(mapping or {})
        # open addressing at ≤0.75 load; power-of-two capacity so the
        # probe sequence is a cheap mask
        self._capacity = 1 << max(3, (len(items) * 4 // 3 + 1).bit_length())
        self._fps = array("Q", bytes(8 * self._capacity))
        self._owners = array("i", bytes(4 * self._capacity))
        self._tombstones = 0
        self._len = len(items)
        self._exact: Dict[Hashable, int] = {}
        self._filter = KeyFilter(
            max(len(items), 1),
            self._config.filter_bits_per_key,
            self._config.filter_hashes,
        )
        self.lookups = 0
        self.filter_rejects = 0
        self.filter_false_positives = 0
        fingerprint = 0
        for key, members in self._splits.items():
            fingerprint ^= split_fingerprint(key, members)
        # One pass writes the store, the filter cells and the XOR
        # fingerprint. A new store holds no tombstone, so one probe from
        # the home slot ends at the empty slot the key takes, or at its
        # fingerprint: a build-time collision between two resident keys,
        # where the first keeps the slot and the later one stays raw in
        # ``_exact``, so both stay exact.
        fps, owners, exact = self._fps, self._owners, self._exact
        fp_mask, slot_mask = self._mask, self._capacity - 1
        cells = self._filter._cells
        num_cells = self._filter._num_cells
        probes = range(self._config.filter_hashes)
        for key, owner in items.items():
            fp = (stable_hash(key, _KEY_FP_SEED) & fp_mask) + 2
            slot = fp & slot_mask
            current = fps[slot]
            while current != _EMPTY and current != fp:
                slot = (slot + 1) & slot_mask
                current = fps[slot]
            if current == _EMPTY:
                fps[slot] = fp
                owners[slot] = owner
            else:
                exact[key] = owner
            # KeyFilter.add, inlined: the positions of KeyFilter._positions
            h = stable_hash(key, _FILTER_SEED)
            h1 = h & 0xFFFFFFFF
            h2 = (h >> 32) | 1
            for i in probes:
                pos = (h1 + i * h2) % num_cells
                if cells[pos] < 255:
                    cells[pos] += 1
            fingerprint ^= entry_fingerprint(key, owner)
        self._fingerprint = fingerprint

    @classmethod
    def from_table(
        cls, table: RoutingTable, config: Optional[CompactTableConfig] = None
    ) -> "CompactRoutingTable":
        """Compact an enumerable table (entries fingerprinted, splits
        carried raw). The result compares equal to ``table``."""
        return cls(table.mapping, table.splits, config)

    # ------------------------------------------------------------------
    # Fingerprint store internals
    # ------------------------------------------------------------------

    def _slot_fp(self, key: Hashable) -> int:
        return (stable_hash(key, _KEY_FP_SEED) & self._mask) + 2

    def _find(self, fp: int) -> int:
        """Slot index holding ``fp``, or -1. Linear probing from the
        fingerprint's home slot; _EMPTY terminates, _TOMBSTONE does
        not."""
        fps = self._fps
        mask = self._capacity - 1
        slot = fp & mask
        while True:
            current = fps[slot]
            if current == fp:
                return slot
            if current == _EMPTY:
                return -1
            slot = (slot + 1) & mask

    def _place(self, fp: int, owner: int) -> None:
        fps = self._fps
        mask = self._capacity - 1
        slot = fp & mask
        while fps[slot] > _TOMBSTONE:
            slot = (slot + 1) & mask
        if fps[slot] == _TOMBSTONE:
            self._tombstones -= 1
        fps[slot] = fp
        self._owners[slot] = owner

    def _maybe_rebuild(self) -> None:
        """Re-pack the store when deltas have bloated it: tombstones
        past a quarter of capacity, or load past 0.75."""
        live = self._len - len(self._exact)
        if (
            self._tombstones <= self._capacity // 4
            and (live + self._tombstones) * 4 <= self._capacity * 3
        ):
            return
        old_fps, old_owners = self._fps, self._owners
        self._capacity = 1 << max(3, (live * 4 // 3 + 1).bit_length())
        self._fps = array("Q", bytes(8 * self._capacity))
        self._owners = array("i", bytes(4 * self._capacity))
        self._tombstones = 0
        for slot, fp in enumerate(old_fps):
            if fp > _TOMBSTONE:
                self._place(fp, old_owners[slot])

    # ------------------------------------------------------------------
    # Delta mutation (package-private: TableDelta.apply drives these)
    # ------------------------------------------------------------------

    def _set(self, key: Hashable, owner: int) -> None:
        if key in self._exact:
            old = self._exact[key]
            if old != owner:
                self._exact[key] = owner
                self._fingerprint ^= entry_fingerprint(key, old)
                self._fingerprint ^= entry_fingerprint(key, owner)
            return
        fp = self._slot_fp(key)
        slot = self._find(fp)
        present = key in self._filter
        if slot >= 0 and present:
            # owner update of a resident key (or, within the budget, of
            # a same-fingerprint twin that also passes the filter)
            old = self._owners[slot]
            if old != owner:
                self._owners[slot] = owner
                self._fingerprint ^= entry_fingerprint(key, old)
                self._fingerprint ^= entry_fingerprint(key, owner)
            return
        if slot >= 0:
            # filter says the key is new, so the fingerprint match is a
            # known collision with a *different* resident key — keep
            # the newcomer exact rather than corrupt the resident
            self._exact[key] = owner
        else:
            self._place(fp, owner)
        self._filter.add(key)
        self._fingerprint ^= entry_fingerprint(key, owner)
        self._len += 1
        self._maybe_rebuild()

    def _remove(self, key: Hashable) -> None:
        if key in self._exact:
            old = self._exact.pop(key)
            self._filter.discard(key)
            self._fingerprint ^= entry_fingerprint(key, old)
            self._len -= 1
            return
        if key not in self._filter:
            return  # removing an absent key is a no-op
        fp = self._slot_fp(key)
        slot = self._find(fp)
        if slot < 0:
            return  # filter false positive on an absent key
        old = self._owners[slot]
        self._fps[slot] = _TOMBSTONE
        self._tombstones += 1
        self._filter.discard(key)
        self._fingerprint ^= entry_fingerprint(key, old)
        self._len -= 1
        self._maybe_rebuild()

    def _set_split(self, key: Hashable, members: Tuple[int, ...]) -> None:
        members = tuple(members)
        old = self._splits.get(key)
        if old is not None:
            self._fingerprint ^= split_fingerprint(key, old)
        self._splits[key] = members
        self._fingerprint ^= split_fingerprint(key, members)

    def _remove_split(self, key: Hashable) -> None:
        old = self._splits.pop(key, None)
        if old is not None:
            self._fingerprint ^= split_fingerprint(key, old)

    def copy(self) -> "CompactRoutingTable":
        """A structural copy sharing no mutable state (used as the
        delta-application base so the router's live table is never
        mutated in place)."""
        clone = CompactRoutingTable.__new__(CompactRoutingTable)
        clone._config = self._config
        clone._mask = self._mask
        clone._fps = array("Q", self._fps)
        clone._owners = array("i", self._owners)
        clone._capacity = self._capacity
        clone._tombstones = self._tombstones
        clone._len = self._len
        clone._exact = dict(self._exact)
        clone._splits = dict(self._splits)
        new_filter = KeyFilter.__new__(KeyFilter)
        new_filter._cells = bytearray(self._filter._cells)
        new_filter._num_cells = self._filter._num_cells
        new_filter._num_hashes = self._filter._num_hashes
        clone._filter = new_filter
        clone._fingerprint = self._fingerprint
        # Traffic counters follow the lineage: a delta-applied
        # successor keeps accumulating, so the summed metrics don't
        # zero out on every table swap.
        clone.lookups = self.lookups
        clone.filter_rejects = self.filter_rejects
        clone.filter_false_positives = self.filter_false_positives
        return clone

    # ------------------------------------------------------------------
    # RoutingTable-compatible API
    # ------------------------------------------------------------------

    def lookup(self, key: Hashable) -> Optional[int]:
        self.lookups += 1
        if key not in self._filter:
            self.filter_rejects += 1
            return None
        exact = self._exact
        if exact:
            owner = exact.get(key)
            if owner is not None:
                return owner
        slot = self._find(self._slot_fp(key))
        if slot < 0:
            self.filter_false_positives += 1
            return None
        return self._owners[slot]

    def lookup_many(self, keys) -> list:
        """:meth:`lookup` of every key of ``keys``, in order (each one
        counted, as a scalar lookup is)."""
        return list(map(self.lookup, keys))

    def split(self, key: Hashable) -> Optional[Tuple[int, ...]]:
        return self._splits.get(key)

    @property
    def splits(self) -> Mapping[Hashable, Tuple[int, ...]]:
        return MappingProxyType(self._splits)

    @property
    def num_split_keys(self) -> int:
        return len(self._splits)

    def split_keys(self) -> Iterator[Hashable]:
        return iter(self._splits)

    def with_splits(
        self, splits: Optional[Mapping[Hashable, Tuple[int, ...]]]
    ) -> "CompactRoutingTable":
        clone = self.copy()
        for key in list(clone._splits):
            clone._remove_split(key)
        for key, members in (splits or {}).items():
            clone._set_split(key, tuple(members))
        return clone

    def __contains__(self, key: Hashable) -> bool:
        if key not in self._filter:
            return False
        return key in self._exact or self._find(self._slot_fp(key)) >= 0

    def __len__(self) -> int:
        return self._len

    def max_instance(self) -> Optional[int]:
        top: Optional[int] = None
        fps = self._fps
        owners = self._owners
        for slot in range(self._capacity):
            if fps[slot] > _TOMBSTONE:
                owner = owners[slot]
                if top is None or owner > top:
                    top = owner
        for owner in self._exact.values():
            if top is None or owner > top:
                top = owner
        for members in self._splits.values():
            if members:
                widest = max(members)
                top = widest if top is None else max(top, widest)
        return top

    def fingerprint(self) -> int:
        return self._fingerprint

    # Enumeration — and with it diffing — is impossible by design;
    # fail loudly if anything tries (planning stays on plain tables).
    def _plan_on_plain_tables(self, *args, **kwargs):
        raise TypeError(
            "CompactRoutingTable stores fingerprints, not keys; "
            "plan with plain RoutingTable and compact at the wire "
            "boundary (DESIGN.md §13)"
        )

    keys = items = as_dict = _plan_on_plain_tables
    moved_keys = split_consolidations = _plan_on_plain_tables

    # ------------------------------------------------------------------
    # Memory / accuracy model (DESIGN.md §13)
    # ------------------------------------------------------------------

    @property
    def config(self) -> CompactTableConfig:
        return self._config

    def table_bytes(self) -> int:
        """Modeled entry-store memory: every capacity slot charged
        ``ceil(fingerprint_bits/8) + 2`` bytes (owner as u16), plus the
        exact side-dict at plain-table rates."""
        per_slot = (self._config.fingerprint_bits + 7) // 8 + 2
        total = self._capacity * per_slot
        for key in self._exact:
            total += 18 + len(repr(key).encode("utf-8", "backslashreplace"))
        return total

    def filter_bytes(self) -> int:
        """Modeled front-filter memory (4-bit counting cells)."""
        return self._filter.model_bytes

    def memory_bytes(self) -> int:
        """Total modeled memory: entry store + filter + raw split set
        (split keys stay raw; the set is heavy-hitters-sized)."""
        total = self.table_bytes() + self.filter_bytes()
        for key, members in self._splits.items():
            key_bytes = len(repr(key).encode("utf-8", "backslashreplace"))
            total += 2 + key_bytes + 1 + 2 * len(members)
        return total

    def expected_false_route_rate(self) -> float:
        """Probability an absent key is falsely routed: it must pass
        the filter AND match a resident fingerprint."""
        fp_match = min(1.0, self._len / float(1 << self._config.fingerprint_bits))
        return self._filter.false_positive_rate(self._len) * fp_match

    def within_budget(self) -> bool:
        return self.expected_false_route_rate() <= self._config.false_route_budget

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (CompactRoutingTable, RoutingTable)):
            return NotImplemented
        return (
            len(self) == len(other)
            and self._fingerprint == other.fingerprint()
            and dict(self._splits) == dict(other.splits)
        )

    def __repr__(self) -> str:
        rate = self.expected_false_route_rate()
        return (
            f"CompactRoutingTable({self._len} keys, "
            f"{len(self._splits)} split, "
            f"{self.memory_bytes()} model bytes, "
            f"false-route~{rate:.2e})"
        )


def plain_table_memory_bytes(table) -> int:
    """Modeled memory of a raw-key table under the same accounting as
    DESIGN.md §13: per entry a slot pointer (8), a key header (8), the
    key's repr bytes and a u16 owner; split entries at snapshot rates.
    Lets scale sweeps compare plain vs compact on one axis."""
    if table is None:
        return 0
    total = 0
    for key, _owner in table.items():
        total += 18 + len(repr(key).encode("utf-8", "backslashreplace"))
    for key, members in table.splits.items():
        key_bytes = len(repr(key).encode("utf-8", "backslashreplace"))
        total += 2 + key_bytes + 1 + 2 * len(members)
    return total
