"""The batch routing kernel (DESIGN.md §15.2).

One implementation of "where does this batch of tuples go", shared by
the vectorized edges and the multiprocess workers. A kernel is built
from a grouping and a :class:`~repro.engine.grouping.RouterContext`
exactly as ``Grouping.build_router`` builds a scalar router, and
answers per *batch*:

- ``route(values) -> (dst, key_ids, rows)`` — ``dst``: ``int64``
  destination instances; ``key_ids``: the dense key ids of keyed
  kernels, else None; ``rows``: None when ``dst[i]`` belongs to
  ``values[i]``, else (selects that returned zero or several
  destinations) the index into ``values`` of every entry of ``dst``;
- ``update_table(table)`` / ``resize(n, table)`` on table kernels —
  the batch mirror of ``TableRouter.update_table`` / ``resize``.

Keyed kernels intern each distinct key once (:class:`Vocab`) and keep
an id → destination array resolved with
:func:`~repro.engine.grouping.key_owner`, the scalar routers' rule, so
a batch routes as one numpy gather. Groupings without a batch form
(broadcast, global, local-or-shuffle, custom) go through
:class:`RouteKernel` itself, which loops the scalar router. The scalar
routers in :mod:`repro.engine.grouping` stay the oracle the kernels
are property-tested against; they and this module are the only places
routing math lives.

A stream needs one kernel per host when its decision is a pure
function of the key (:data:`DETERMINISTIC_KINDS`) and one per source
instance when it depends on that instance's state or context (load
counters, round-robin cursors) — the DES has one router per (stream,
source instance).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.grouping import (
    _SCALAR_KEY_TYPES,
    _checked_width,
    FieldsGrouping,
    Grouping,
    HybridTableFieldsGrouping,
    PartialKeyGrouping,
    RouterContext,
    ShuffleGrouping,
    TableFieldsGrouping,
    _require_destinations,
    candidate_instances,
    key_owner,
    key_owners,
    split_members,
    stream_context,
)

#: kinds routing by a pure function of (key, table, width): one kernel
#: serves every source instance, keys have an owner to migrate state
#: to, and scripted reconfigurations may swap the table
DETERMINISTIC_KINDS = ("table", "hash")

#: kinds whose routers (and kernels) count ``table_hits`` /
#: ``hash_fallbacks`` — the streams of ``BackendResult.route_counts``
TABLE_KINDS = ("table", "hybrid")


class _Memo(dict):
    """Key → id for the keys of one scalar type; a missing key is
    interned on lookup, at the end of the vocabulary's ``keys``."""

    __slots__ = ("_interned",)

    def __init__(self, interned: List[Any]) -> None:
        self._interned = interned

    def __missing__(self, key) -> int:
        kid = self[key] = len(self._interned)
        self._interned.append(key)
        return kid


class Vocab:
    """Key interning for one kernel: key → dense id, id → key.

    Keys are type-tagged exactly like the scalar routers' memos
    (``1`` / ``1.0`` / ``True`` must not alias): one memo per scalar
    type, all numbering into the same ``keys``. Non-scalar keys are
    never interned — their elements can alias the same way without the
    outer type telling them apart — and encode as id ``-1``.
    """

    __slots__ = ("_memos", "keys")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self._memos: Dict[type, _Memo] = {
            cls: _Memo(self.keys) for cls in _SCALAR_KEY_TYPES
        }

    def id_of(self, key) -> Optional[int]:
        """The id ``key`` was interned under, None if it never was."""
        memo = self._memos.get(key.__class__)
        return None if memo is None else memo.get(key)

    def encode(self, raw_keys) -> Tuple[np.ndarray, bool]:
        """(ids of ``raw_keys``, whether any was non-scalar)."""
        memos = self._memos
        classes = set(map(type, raw_keys))
        if len(classes) == 1:
            memo = memos.get(classes.pop())
            if memo is not None:  # one scalar type: no per-key dispatch
                ids = np.fromiter(
                    map(memo.__getitem__, raw_keys),
                    dtype=np.int64,
                    count=len(raw_keys),
                )
                return ids, False
        loose = False
        ids: List[int] = []
        append = ids.append
        for key in raw_keys:
            memo = memos.get(key.__class__)
            if memo is None:
                loose = True
                append(-1)
            else:
                append(memo[key])
        return np.array(ids, dtype=np.int64), loose


class RouteKernel:
    """The generic kernel: loops the grouping's scalar router, which
    may select zero or several destinations per tuple."""

    def __init__(self, grouping: Grouping, context: RouterContext) -> None:
        self.kind = edge_kind(grouping)
        self.n = _require_destinations(context)
        self.seed = context.seed
        self._setup(grouping, context)

    def _setup(self, grouping: Grouping, context: RouterContext) -> None:
        self._router = grouping.build_router(context)

    def route(self, values: Sequence[tuple]):
        select = self._router.select
        dst: List[int] = []
        rows: List[int] = []
        aligned = True
        for row, tuple_values in enumerate(values):
            selected = select(tuple_values)
            if len(selected) != 1:
                aligned = False
            dst.extend(selected)
            rows.extend([row] * len(selected))
        return (
            np.array(dst, dtype=np.int64),
            None,
            None if aligned else np.array(rows, dtype=np.int64),
        )


class _TableKernel(RouteKernel):
    """table / hash streams: ``owners[id]`` is the key's destination,
    a pure function of (key, table, n, seed)."""

    def _setup(self, grouping: Grouping, context: RouterContext) -> None:
        self.table = getattr(grouping, "initial_table", None)
        self._key_of = grouping.key_fn
        self.vocab = Vocab()
        #: id → destination instance
        self.owners = np.empty(0, dtype=np.int64)
        #: id → whether the destination came from the table
        self._from_table = np.empty(0, dtype=bool)
        #: per *tuple*, like the scalar routers: their sum is the
        #: number of tuples routed
        self.table_hits = 0
        self.hash_fallbacks = 0

    def owner_of(self, key) -> int:
        """The key's destination under the current table and width
        (state migration asks this; nothing is counted or interned)."""
        return key_owner(key, self.table, self.seed, self.n)[0]

    def _extend(self) -> None:
        """Resolve the vocabulary ids that have no owner yet."""
        keys = self.vocab.keys
        known = len(self.owners)
        if len(keys) == known:
            return
        owners, from_table = key_owners(
            keys[known:], self.table, self.seed, self.n
        )
        self.owners = np.concatenate(
            [self.owners, np.array(owners, dtype=np.int64)]
        )
        self._from_table = np.concatenate(
            [self._from_table, np.array(from_table, dtype=bool)]
        )

    def update_table(self, table) -> None:
        """Swap the table and re-resolve every known key."""
        # FieldsGrouping has no table: a hash stream stays a hash stream
        self.table = table if self.kind != "hash" else None
        self.owners = np.empty(0, dtype=np.int64)
        self._from_table = np.empty(0, dtype=bool)
        self._extend()

    def resize(self, num_destinations: int, table) -> None:
        """Swap the width *and* the table atomically."""
        self.n = _checked_width(num_destinations)
        self.update_table(table)

    def route(self, values: Sequence[tuple]):
        keys = list(map(self._key_of, values))
        ids, loose = self.vocab.encode(keys)
        self._extend()
        if not loose:
            return self._route_ids(ids), ids, None
        # Non-scalar keys are never interned: each resolves directly.
        interned = ids >= 0
        dst = np.empty(len(ids), dtype=np.int64)
        dst[interned] = self._route_ids(ids[interned])
        for index in np.nonzero(~interned)[0].tolist():
            dst[index], from_table = key_owner(
                keys[index], self.table, self.seed, self.n
            )
            if from_table:
                self.table_hits += 1
            else:
                self.hash_fallbacks += 1
        return dst, ids, None

    def _route_ids(self, ids: np.ndarray) -> np.ndarray:
        hits = int(np.count_nonzero(self._from_table[ids]))
        self.table_hits += hits
        self.hash_fallbacks += len(ids) - hits
        return self.owners[ids]


class _HybridKernel(_TableKernel):
    """Table routing for the tail, least-loaded member of the table's
    split set for heavy hitters (``HybridTableRouter``).

    Tail traffic is credited to the load counters per batch, the
    scalar router credits it per tuple: split keys stay inside their
    member set either way, the exact member sequence may differ."""

    def _setup(self, grouping: Grouping, context: RouterContext) -> None:
        super()._setup(grouping, context)
        #: id → valid split members
        self.splits: Dict[int, Tuple[int, ...]] = {}
        #: the keys of ``splits`` as an array, rebuilt when they change
        self._split_ids: Optional[np.ndarray] = None
        #: per-destination sent counters (least-loaded pick)
        self.sent = np.zeros(self.n, dtype=np.int64)
        #: tuples routed through a split set
        self.split_routes = 0

    def _extend(self) -> None:
        known = len(self.owners)
        super()._extend()
        split_fn = getattr(self.table, "split", None)
        if split_fn is None:
            return
        keys = self.vocab.keys
        for kid in range(known, len(keys)):
            members = split_fn(keys[kid])
            if members:
                self.splits[kid] = split_members(keys[kid], members, self.n)
                self._split_ids = None

    def update_table(self, table) -> None:
        self.splits = {}
        self._split_ids = None
        self.sent = np.zeros(self.n, dtype=np.int64)
        super().update_table(table)

    def _route_ids(self, ids: np.ndarray) -> np.ndarray:
        splits = self.splits
        if not splits:
            dst = super()._route_ids(ids)
            self.sent += np.bincount(dst, minlength=self.n)
            return dst
        if self._split_ids is None:
            self._split_ids = np.fromiter(splits, dtype=np.int64)
        split_mask = np.isin(ids, self._split_ids)
        dst = self.owners[ids]
        tail = super()._route_ids(ids[~split_mask])
        self.sent += np.bincount(tail, minlength=self.n)
        sent = self.sent.tolist()
        positions = np.nonzero(split_mask)[0].tolist()
        for index, kid in zip(positions, ids[split_mask].tolist()):
            choice = min(splits[kid], key=sent.__getitem__)
            dst[index] = choice
            sent[choice] += 1
        self.sent = np.array(sent, dtype=np.int64)
        self.split_routes += len(positions)
        return dst


class _PkgKernel(RouteKernel):
    """Power of d choices (``_DChoicesRouter``): candidates once per
    key, the pick per tuple — inherently sequential, each pick feeds
    the load counters the next one reads."""

    def _setup(self, grouping: Grouping, context: RouterContext) -> None:
        self.d = grouping.d
        self._key_of = grouping.key_fn
        self.vocab = Vocab()
        #: id → d candidate instances
        self.cands: List[Tuple[int, ...]] = []
        self.sent = [0] * self.n

    def route(self, values: Sequence[tuple]):
        keys = list(map(self._key_of, values))
        ids, _ = self.vocab.encode(keys)
        cands = self.cands
        seed, n, d = self.seed, self.n, self.d
        cands.extend(
            candidate_instances(key, seed, n, d)
            for key in self.vocab.keys[len(cands):]
        )
        sent = self.sent
        dst: List[int] = []
        for index, kid in enumerate(ids.tolist()):
            row = (
                cands[kid]
                if kid >= 0
                else candidate_instances(keys[index], seed, n, d)
            )
            choice = min(row, key=sent.__getitem__)
            dst.append(choice)
            sent[choice] += 1
        return np.array(dst, dtype=np.int64), ids, None


class _ShuffleKernel(RouteKernel):
    """Round-robin from the source instance's index (``_ShuffleRouter``)."""

    def _setup(self, grouping: Grouping, context: RouterContext) -> None:
        self._next = context.src_instance % self.n

    def route(self, values: Sequence[tuple]):
        count = len(values)
        dst = (self._next + np.arange(count, dtype=np.int64)) % self.n
        self._next = (self._next + count) % self.n
        return dst, None, None


#: (grouping class, kind, kernel class); the first match wins, so
#: subclasses come before their bases
_BY_GROUPING = (
    (HybridTableFieldsGrouping, "hybrid", _HybridKernel),
    (TableFieldsGrouping, "table", _TableKernel),
    (FieldsGrouping, "hash", _TableKernel),
    (PartialKeyGrouping, "pkg", _PkgKernel),
    (ShuffleGrouping, "shuffle", _ShuffleKernel),
    (Grouping, "generic", RouteKernel),
)


def _match(grouping: Grouping) -> tuple:
    return next(row for row in _BY_GROUPING if isinstance(grouping, row[0]))


def edge_kind(grouping: Grouping) -> str:
    """Which kernel routes ``grouping``; ``"generic"`` for policies
    that only have a scalar router."""
    return _match(grouping)[1]


def build_kernel(grouping: Grouping, context: RouterContext) -> RouteKernel:
    """The batch counterpart of ``grouping.build_router(context)``."""
    return _match(grouping)[2](grouping, context)


def stream_kernel(
    stream,
    src_instance: int,
    src_server: int,
    dst_placements: Sequence[int],
) -> RouteKernel:
    """The kernel of ``stream`` for one source instance, under the
    context ``deploy`` gives the DES router of the same pair."""
    return build_kernel(
        stream.grouping,
        stream_context(stream, src_instance, src_server, dst_placements),
    )


def route_per_source(
    kernel_of: Callable[[int], RouteKernel],
    values: Sequence[tuple],
    src: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Route a batch through its source instances' own kernels.

    Returns ``(dst, rows)`` as :meth:`RouteKernel.route` does. A batch
    that mixes source instances (a bolt shard hosting several) is
    grouped by instance, each group keeping its order — what every
    per-source kernel sees is its instance's tuples in sequence.
    """
    instances = np.flatnonzero(np.bincount(src)).tolist()
    if len(instances) == 1:
        dst, _, rows = kernel_of(instances[0]).route(values)
        return dst, rows
    dst_parts = []
    row_parts = []
    for instance in instances:
        index = np.nonzero(src == instance)[0]
        dst, _, rows = kernel_of(instance).route(
            [values[i] for i in index.tolist()]
        )
        dst_parts.append(dst)
        row_parts.append(index if rows is None else index[rows])
    return np.concatenate(dst_parts), np.concatenate(row_parts)
