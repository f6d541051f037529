"""Stream routing policies (Section 2.2 of the paper).

A *grouping* is the declarative policy attached to a stream in the
topology; at deployment it is instantiated into one *router* per source
instance. Routers map an emitted tuple's values to destination instance
indices.

Implemented groupings:

- **shuffle** — round-robin over all destination instances;
- **local-or-shuffle** — round-robin over same-server instances when
  any exist, else shuffle;
- **fields** — hash of a key extracted from the tuple (the Storm
  default for stateful bolts);
- **table fields** — fields grouping driven by an explicit routing
  table with hash fallback: the mechanism the paper's manager updates
  online;
- **global**, **broadcast** — classic utilities;
- **partial key** — "power of d choices" key splitting (Nasir et al.,
  ICDE'15, generalized to d ≥ 2 candidates). A first-class mode: pair
  it with a downstream merge stage
  (:class:`~repro.engine.operators.PartialCountBolt` →
  :class:`~repro.engine.operators.SumBolt`) and split keys stay exact
  for stateful counting;
- **hybrid table fields** — table routing for the correlated tail,
  d-choices splitting for the heavy hitters named in the table's
  split set (the skew-resilient mode the manager drives online);
- **custom** — arbitrary routing function (used by the worst-case
  policy of Section 4.2).

Every ``build_router`` validates that the stream has at least one
destination instance and raises :class:`~repro.errors.RoutingError`
naming the stream otherwise (the routers' modular arithmetic would
surface it later as a bare ``ZeroDivisionError`` mid-run).

One router class per policy answers per tuple, ``select`` (the DES),
and per batch, ``route`` (the fast backends; DESIGN.md §15.2). Batch
state is created by the first ``route`` and numpy imported only where
a batch is routed, so the DES runs without it.
"""

from __future__ import annotations

import zlib
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError

KeySpec = Union[int, Callable[[tuple], Any]]


def normalize_key_fn(key: KeySpec) -> Callable[[tuple], Any]:
    """Turn a field index or callable into a key extraction function."""
    if callable(key):
        return key
    try:
        # any integer type: a numpy int64 indexes a tuple like an int
        return operator.itemgetter(operator.index(key))
    except TypeError:
        raise RoutingError(
            f"key must be a field index or callable, got {key!r}"
        ) from None


_MASK64 = (1 << 64) - 1
#: how the seed enters a hash: ``crc32(key bytes) ^ seed * _SEED_MULT``
_SEED_MULT = 0x9E3779B97F4A7C15

#: Hot-key interning for :func:`stable_hash`: the canonical-key/repr/
#: CRC/splitmix pipeline runs once per distinct (key, seed), not once
#: per tuple. Bounded by wholesale clearing — with realistic key
#: cardinalities the memo never fills; if it does, dropping it costs
#: one recomputation per key and keeps results identical either way.
_HASH_MEMO: dict = {}
_HASH_MEMO_MAX = 1 << 17

#: the classes :func:`canonical_key` leaves as they are, hashed by the
#: batch's C-level pass
_PLAIN_KEY_CLASSES = frozenset((str, int, bytes))


def canonical_key(key: Any) -> Any:
    """What a key is: the one value that ``key`` and every key equal
    to it hash, and are sized, as.

    A bolt's state dict, a routing table, the memos and a batch
    vocabulary all let ``==`` decide which keys are one, so equal keys
    must hash alike too, or one key's state could sit on two owners:

    - a bool, or any int subclass, is the int it equals;
    - an integral float is that int (either float zero is ``0``), any
      other float a plain float;
    - a tuple (a named one too) is the tuple of its elements' canonical
      keys;
    - NaN equals no key, itself included, so it has no owner and
      raises :class:`~repro.errors.RoutingError`.

    Every other value is its own canonical key.
    """
    if isinstance(key, tuple):
        return tuple(map(canonical_key, key))
    if isinstance(key, float):
        if key.is_integer():
            return int(key)
        if key != key:
            raise RoutingError(
                "NaN is not a routing key: it equals no key, itself "
                "included, so no table or state dict can find it again"
            )
        return float(key)
    if isinstance(key, int):
        return int(key)
    return key


def _key_bytes(key: Any) -> bytes:
    """The bytes ``key`` hashes as: the ``repr`` of its
    :func:`canonical_key` in UTF-8. Run where a key is hashed (a memo
    miss, a batch's new keys), never on a memo hit."""
    return repr(canonical_key(key)).encode("utf-8", "backslashreplace")


def _mix(x):
    """The splitmix64 finalizer, one body for both hash paths: a Python
    int is masked to 64 bits, a ``uint64`` array wraps (the mask is a
    no-op on it)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_hash_uncached(key: Any, seed: int) -> int:
    """:func:`stable_hash` without the memo, for values hashed once."""
    return _mix((zlib.crc32(_key_bytes(key)) ^ seed * _SEED_MULT) & _MASK64)


def stable_hash(key: Any, seed: int = 0) -> int:
    """Deterministic, process-independent hash of a key.

    Python's builtin ``hash`` is randomized per process for strings.
    CRC32 alone is *linear* (two key families differing by a constant
    byte pattern would land at a constant XOR offset — catastrophically
    correlating the owners of paired keys), so a splitmix64 finalizer
    mixes the CRC with the seed non-linearly.

    Results are interned in a bounded module-level memo keyed by the
    key itself (the hash pipeline is the single hottest data-plane
    cost). Equal keys share an entry and have one hash
    (:func:`canonical_key`), so the memo is transparent: cached and
    uncached calls return identical values.
    """
    memo_key = (key, seed)
    cached = _HASH_MEMO.get(memo_key)
    if cached is not None:
        return cached
    value = stable_hash_uncached(key, seed)
    if len(_HASH_MEMO) >= _HASH_MEMO_MAX:
        _HASH_MEMO.clear()
    _HASH_MEMO[memo_key] = value
    return value


def clear_stable_hash_memo() -> None:
    """Drop the :func:`stable_hash` interning memo (test isolation)."""
    _HASH_MEMO.clear()


def hash_owner(key: Any, seed: int, num_destinations: int) -> int:
    """The hash fallback of Section 3.3 — where a key goes when no
    table names it. The only place the fallback is spelled per key
    (:func:`_hash_owners` spells it over arrays)."""
    return stable_hash(key, seed) % num_destinations


def _key_crcs(keys: Sequence[Any]):
    """CRC32 of every key's :func:`_key_bytes`, as ``uint64``: one
    C-level ``repr`` → ``encode`` → ``crc32`` pass. Keys of exact class
    ``str`` / ``int`` / ``bytes`` are their own canonical keys; only
    keys of other classes go through :func:`canonical_key`, one by
    one."""
    import numpy as np

    if not _PLAIN_KEY_CLASSES.issuperset(map(type, keys)):
        keys = [
            key if key.__class__ in _PLAIN_KEY_CLASSES else canonical_key(key)
            for key in keys
        ]
    data = map(
        str.encode,
        map(repr, keys),
        repeat("utf-8"),
        repeat("backslashreplace"),
    )
    return np.fromiter(map(zlib.crc32, data), dtype=np.uint64, count=len(keys))


def _seeded(crcs, seed: int):
    """The hashes of the keys behind ``crcs`` under ``seed``: the seed
    term is worked out once per batch."""
    return _mix(crcs ^ (seed * _SEED_MULT & _MASK64))


def stable_hashes(keys: Sequence[Any], seed: int = 0):
    """:func:`stable_hash` of every key of ``keys``, as a ``uint64``
    array, in one pass over the batch instead of a call chain per key
    (no memo: the batch callers intern their keys already)."""
    return _seeded(_key_crcs(keys), seed)


def _hash_owners(crcs, seed: int, num_destinations: int):
    """:func:`hash_owner` of the keys behind ``crcs``, as ``int64``:
    the fallback spelled over arrays."""
    import numpy as np

    return (_seeded(crcs, seed) % num_destinations).astype(np.int64)


def _entry_out_of_range(key, instance, num_destinations) -> RoutingError:
    return RoutingError(
        f"routing table maps {key!r} to instance {instance}, "
        f"but stream has {num_destinations} destinations"
    )


def key_owner(
    key: Any, table, seed: int, num_destinations: int, strict: bool = True
) -> Tuple[int, bool]:
    """The owner rule of Section 3.3: ``(instance, came_from_table)``.

    A key in ``table`` (any object with ``lookup(key) -> Optional[int]``,
    or None) goes where the table says, any other key where the hash
    says. Routers, the migration planner, the rescale scan and the
    rollback all call this, so they cannot disagree on an owner.

    A table entry outside ``range(num_destinations)`` raises
    :class:`~repro.errors.RoutingError` — on the data plane it means a
    table and a width were swapped separately. ``strict=False`` is the
    control plane's reading of a *stale* table (rollback and evacuation
    resolve owners at a width the table was not planned for): the entry
    is ignored and the key falls back to the hash.
    """
    if table is not None:
        instance = table.lookup(key)
        if instance is not None:
            if 0 <= instance < num_destinations:
                return instance, True
            if strict:
                raise _entry_out_of_range(key, instance, num_destinations)
    return hash_owner(key, seed, num_destinations), False


def key_owners(
    keys: Sequence[Any],
    table,
    seed: int,
    num_destinations: int,
    strict: bool = True,
):
    """:func:`key_owner` of every key of a batch, as two arrays
    ``(owners, from_table)`` (``int64``, ``bool``) — what a router's
    ``route`` resolving a batch of new vocabulary ids wants: one
    ``lookup_many`` call on a table that has it instead of a ``lookup``
    per key, and the keys no entry holds hashed in one batch. The first
    out-of-range entry, in key order, raises as :func:`key_owner`
    does."""
    import numpy as np

    owners = np.zeros(len(keys), dtype=np.int64)
    found: Optional[Sequence[Optional[int]]] = None
    if table is not None:
        lookup_many = getattr(table, "lookup_many", None)
        found = (
            list(map(table.lookup, keys))
            if lookup_many is None
            else lookup_many(keys)
        )
    if found is None or found.count(None) == len(keys):  # all hashed
        from_table = np.zeros(len(keys), dtype=bool)
    else:
        # a miss (None) reads as nan, which no range holds
        entries = np.array(found, dtype=np.float64)
        from_table = (entries >= 0) & (entries < num_destinations)
        if strict:
            stale = np.flatnonzero(~from_table & ~np.isnan(entries))
            if len(stale):
                index = int(stale[0])
                raise _entry_out_of_range(
                    keys[index], found[index], num_destinations
                )
        owners[from_table] = entries[from_table]
    misses = ~from_table
    if misses.any():
        if not misses.all():
            keys = list(compress(keys, misses.tolist()))
        owners[misses] = _hash_owners(_key_crcs(keys), seed, num_destinations)
    return owners, from_table


#: Capacity of each per-router memo (:class:`_RouteCache`).
ROUTE_CACHE_CAPACITY = 4096


class _RouteCache:
    """Bounded LRU memo of a router's per-key work, kept only where a
    miss is real work (DESIGN.md §10.1): in front of a table whose
    ``lookup`` is expensive and in front of the d-choices candidate
    hashes. In front of a ``dict.get`` or the interned
    :func:`stable_hash` it costs more than it saves.

    Values are treated as immutable by callers (routers hand the cached
    route list straight to the emission planner, which only iterates).
    A hit reinserts the entry at the MRU end of the underlying dict, so
    eviction drops the least recently *used* key, not the oldest.
    """

    __slots__ = ("_data", "_capacity")

    def __init__(self) -> None:
        self._capacity = ROUTE_CACHE_CAPACITY
        self._data: dict = {}

    def get(self, key):
        data = self._data
        value = data.get(key)
        if value is not None:
            del data[key]
            data[key] = value
        return value

    def put(self, key, value) -> None:
        # only ever called after a ``get`` miss: ``key`` is new
        data = self._data
        if len(data) >= self._capacity:
            del data[next(iter(data))]
        data[key] = value

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class RouterContext:
    """Everything a router may need about its edge at deployment time.
    Build one with :func:`stream_context`, which derives ``seed``."""

    stream_name: str
    src_instance: int
    src_server: int
    #: server hosting each destination instance
    dst_placements: Sequence[int]
    seed: int


def stream_seed(stream_name: str) -> int:
    """The hash seed of a stream's routers — the one place it is
    derived; the control plane reads it through
    ``RoutedStream.hash_seed``."""
    return stable_hash(stream_name)


def stream_context(
    stream,
    src_instance: int,
    src_server: int,
    dst_placements: Sequence[int],
) -> RouterContext:
    """The context every router of ``stream`` (anything with a
    ``name``) is built under for one source instance, on every
    backend."""
    return RouterContext(
        stream.name,
        src_instance,
        src_server,
        dst_placements,
        stream_seed(stream.name),
    )


class _KeyIds(dict):
    """Key → id; a missing key is interned on lookup, at the end of
    ``keys``."""

    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: List[Any] = []

    def __missing__(self, key) -> int:
        kid = self[key] = len(self.keys)
        self.keys.append(key)
        return kid


class Vocab:
    """Key interning for a keyed router's batches: key → dense id,
    id → key (``keys``). Keys that compare equal are one key
    (:func:`canonical_key`), so they share one id; tuple keys are
    interned like any other."""

    __slots__ = ("_ids", "keys")

    def __init__(self) -> None:
        self._ids = _KeyIds()
        self.keys = self._ids.keys

    def id_of(self, key) -> Optional[int]:
        """The id ``key`` was interned under, None if it never was."""
        return self._ids.get(key)

    def encode(self, raw_keys):
        """``int64`` ids of ``raw_keys``, new keys interned."""
        import numpy as np

        return np.fromiter(
            map(self._ids.__getitem__, raw_keys),
            dtype=np.int64,
            count=len(raw_keys),
        )


class Router:
    """Runtime routing decision for one (source instance, stream) —
    or, when ``deterministic``, for every source instance of it."""

    #: each key goes to one owner, a pure function of (key, table,
    #: width): one router serves every source instance of the stream,
    #: keyed state has an owner to migrate to (``owner_of``), and a
    #: scripted reconfiguration may swap the table
    deterministic = False
    #: counts ``table_hits`` / ``hash_fallbacks`` per tuple — the
    #: streams of ``BackendResult.route_counts``
    counts_table_hits = False

    #: named when a resize is refused
    stream_name = "?"

    def select(self, values: tuple) -> List[int]:
        """Destination instance indices for an emission."""
        raise NotImplementedError

    def resize(self, num_destinations: int, table=None) -> None:
        """Adopt a new destination count and, for a table router, the
        table addressing it, in one step (the rescale seam). Policies
        with no width to follow refuse (local-or-shuffle, constant,
        custom)."""
        raise RoutingError(
            f"stream {self.stream_name!r}: {type(self).__name__} has no "
            f"resize seam, so it cannot follow a rescale"
        )

    def owner_rule(self):
        """``values -> owners`` under the current config, kept across a
        later swap; None for a router with no owner rule."""
        return None

    def route(self, values: Sequence[tuple]):
        """Route a batch: ``(dst, key_ids, rows)``.

        ``dst``: ``int64`` destination instances; ``key_ids``: the
        dense key ids of a keyed router, else None; ``rows``: None when
        ``dst[i]`` belongs to ``values[i]``, else (selects that
        returned zero or several destinations) the index into
        ``values`` of every entry of ``dst``. This default loops
        ``select``; the policies with a batch form override it.
        """
        import numpy as np

        selected = list(map(self.select, values))
        dst = np.array([d for pick in selected for d in pick], dtype=np.int64)
        if all(len(pick) == 1 for pick in selected):
            return dst, None, None
        counts = np.fromiter(map(len, selected), dtype=np.int64)
        return dst, None, np.repeat(np.arange(len(selected)), counts)


def route_per_source(
    router_of: Callable[[int], Router], values: Sequence[tuple], src
):
    """Route a batch through its source instances' own routers.

    Returns ``(dst, rows)`` as :meth:`Router.route` does. A batch that
    mixes source instances (a bolt shard hosting several) is grouped
    by instance, each group keeping its order — what every per-source
    router sees is its instance's tuples in sequence.
    """
    import numpy as np

    instances = np.flatnonzero(np.bincount(src)).tolist()
    if len(instances) == 1:
        dst, _, rows = router_of(instances[0]).route(values)
        return dst, rows
    dst_parts = []
    row_parts = []
    for instance in instances:
        index = np.nonzero(src == instance)[0]
        dst, _, rows = router_of(instance).route(
            [values[i] for i in index.tolist()]
        )
        dst_parts.append(dst)
        row_parts.append(index if rows is None else index[rows])
    return np.concatenate(dst_parts), np.concatenate(row_parts)


class Grouping:
    """Declarative routing policy; builds one router per source POI."""

    def build_router(self, context: RouterContext) -> Router:
        raise NotImplementedError


def _require_destinations(context: RouterContext) -> int:
    """The stream's destination count, validated to be >= 1."""
    n = len(context.dst_placements)
    if n < 1:
        raise RoutingError(
            f"stream {context.stream_name!r} has no destination "
            f"instances; a router needs at least one"
        )
    return n


def _checked_width(num_destinations: int) -> int:
    """A destination count a router may ``resize`` to (rescale seam)."""
    if num_destinations < 1:
        raise RoutingError(
            f"num_destinations must be >= 1, got {num_destinations}"
        )
    return num_destinations


# ----------------------------------------------------------------------
# Shuffle
# ----------------------------------------------------------------------


class _ShuffleRouter(Router):
    def __init__(self, num_destinations: int, start: int) -> None:
        self._n = num_destinations
        self._next = start % num_destinations

    def select(self, values: tuple) -> List[int]:
        dst = self._next
        self._next = (dst + 1) % self._n
        return [dst]

    def route(self, values: Sequence[tuple]):
        import numpy as np

        count = len(values)
        dst = (self._next + np.arange(count, dtype=np.int64)) % self._n
        self._next = (self._next + count) % self._n
        return dst, None, None

    def resize(self, num_destinations: int, table=None) -> None:
        self._n = _checked_width(num_destinations)
        self._next %= num_destinations


class ShuffleGrouping(Grouping):
    """Round-robin over destination instances (stateless POs only)."""

    def build_router(self, context: RouterContext) -> Router:
        n = _require_destinations(context)
        return _ShuffleRouter(n, start=context.src_instance)


# ----------------------------------------------------------------------
# Local-or-shuffle
# ----------------------------------------------------------------------


class _LocalOrShuffleRouter(Router):
    def __init__(self, local: List[int], n: int, context: RouterContext):
        self._local = local
        self._n = n
        self._next = context.src_instance
        self.stream_name = context.stream_name

    def select(self, values: tuple) -> List[int]:
        if self._local:
            dst = self._local[self._next % len(self._local)]
        else:
            dst = self._next % self._n
        self._next += 1
        return [dst]


class LocalOrShuffleGrouping(Grouping):
    """Prefer a destination instance on the sender's server."""

    def build_router(self, context: RouterContext) -> Router:
        _require_destinations(context)
        local = [
            i
            for i, server in enumerate(context.dst_placements)
            if server == context.src_server
        ]
        return _LocalOrShuffleRouter(
            local, len(context.dst_placements), context
        )


# ----------------------------------------------------------------------
# Fields grouping (hash-based)
# ----------------------------------------------------------------------


class _HashFieldsRouter(Router):
    """Hash fields router: a pure function of the key.

    Its batch form, which the table routers inherit, interns each
    distinct key once and keeps ``owners``, an id → destination array
    resolved with :func:`key_owners`: a batch routes as one numpy
    gather, and any width or table swap re-resolves every known key.
    """

    deterministic = True
    #: the table consulted before the hash: none for plain fields
    _table = None
    #: the batch state's :class:`Vocab`, created by the first ``route``
    vocab: Optional[Vocab] = None

    def __init__(self, key_fn, num_destinations: int, seed: int) -> None:
        self._key_fn = key_fn
        self._n = num_destinations
        self._seed = seed

    def select(self, values: tuple) -> List[int]:
        return [hash_owner(self._key_fn(values), self._seed, self._n)]

    @property
    def num_destinations(self) -> int:
        return self._n

    def resize(self, num_destinations: int, table=None) -> None:
        self._n = _checked_width(num_destinations)
        self._reresolve()

    def owner_of(self, key) -> int:
        """The key's destination under the current table and width
        (state migration asks this; nothing is counted or interned)."""
        return key_owner(key, self._table, self._seed, self._n)[0]

    def owner_rule(self):
        """``values -> owners`` (``int64``) under the current table and
        width, kept across a later swap: where a batch's keys lived
        before it. Counts nothing, interns nothing."""
        key_fn, table, seed, n = self._key_fn, self._table, self._seed, self._n
        return lambda values: key_owners(
            list(map(key_fn, values)), table, seed, n
        )[0]

    def route(self, values: Sequence[tuple], ids=None):
        """``Router.route``; ``ids``, when given, are the batch's keys
        already interned into ``vocab`` (a caller that walked the key
        column for its own reasons), so neither is done again."""
        if self.vocab is None:
            self.vocab = Vocab()
            self._reresolve()
        if ids is None:
            ids = self.vocab.encode(list(map(self._key_fn, values)))
        self._extend()
        return self._route_ids(ids), ids, None

    def _route_ids(self, ids):
        return self.owners[ids]

    def _extend(self) -> None:
        """Resolve the vocabulary ids that have no owner yet."""
        import numpy as np

        keys = self.vocab.keys
        known = len(self.owners)
        if len(keys) == known:
            return
        owners, from_table = key_owners(
            keys[known:], self._table, self._seed, self._n
        )
        self.owners = np.concatenate([self.owners, owners])
        self._from_table = np.concatenate([self._from_table, from_table])

    def _reresolve(self) -> None:
        """Resolve every interned key afresh: on the first ``route``
        and after a width or table swap (the batch mirror of dropping
        the route cache)."""
        if self.vocab is None:
            return  # no batch routed: nothing to resolve, no numpy
        import numpy as np

        #: id → destination instance / whether it came from the table
        self.owners = np.empty(0, dtype=np.int64)
        self._from_table = np.empty(0, dtype=bool)
        self._extend()


class FieldsGrouping(Grouping):
    """Key-based deterministic routing: all tuples sharing a key reach
    the same destination instance.

    Parameters
    ----------
    key:
        A field index or ``callable(values) -> key``.
    """

    def __init__(self, key: KeySpec) -> None:
        self.key_fn = normalize_key_fn(key)
        #: the raw key spec (field index or callable) — batch backends
        #: use index equality to prove two key functions identical
        self.key_spec = key

    def build_router(self, context: RouterContext) -> Router:
        return _HashFieldsRouter(
            self.key_fn, _require_destinations(context), context.seed
        )


# ----------------------------------------------------------------------
# Fields grouping driven by an explicit routing table
# ----------------------------------------------------------------------


class TableRouter(_HashFieldsRouter):
    """Fields router with a swappable key→instance table.

    Every select is :func:`key_owner` under the current (table, width):
    unknown keys fall back to hash routing, as in Section 3.3 of the
    paper. ``table_hits`` / ``hash_fallbacks`` count the two outcomes
    per tuple, on either path — the explicit-vs-fallback split the
    telemetry layer exports (a high fallback share after a
    reconfiguration means the routed key set no longer covers the
    traffic, the Fig. 12 unseen-keys effect).

    A table that declares ``lookup_is_expensive`` (the compact tables)
    gets a :class:`_RouteCache` in front of it; a plain table is a
    dictionary and needs none.
    """

    counts_table_hits = True

    def __init__(
        self, key_fn, num_destinations: int, seed: int, table
    ) -> None:
        super().__init__(key_fn, num_destinations, seed)
        self.table_hits = 0
        self.hash_fallbacks = 0
        self._set_table(table)

    def _set_table(self, table) -> None:
        self._table = table
        #: key→(route, table_hit) memo; MUST be dropped whenever the
        #: table or the width changes — a stale cached destination
        #: would silently undo a reconfiguration (DESIGN.md §10.1)
        self._cache = (
            _RouteCache()
            if getattr(table, "lookup_is_expensive", False)
            else None
        )
        self._reresolve()

    @property
    def table(self):
        return self._table

    def update_table(self, table) -> None:
        """Hot-swap the routing table (reconfiguration step 5): every
        key re-resolves against the new table."""
        self._set_table(table)

    def resize(self, num_destinations: int, table=None) -> None:
        """Atomically swap the destination count *and* the table (a
        rescale round changes both; swapping them separately would let
        a tuple route through a (new table, old n) hybrid and hit the
        range check of :func:`key_owner`)."""
        self._n = _checked_width(num_destinations)
        self._set_table(table)

    def select(self, values: tuple) -> List[int]:
        if self._cache is not None:
            return self._select_for_key(self._key_fn(values))
        # no memo: the owner rule in this frame, counted as below
        instance, table_hit = key_owner(
            self._key_fn(values), self._table, self._seed, self._n
        )
        if table_hit:
            self.table_hits += 1
        else:
            self.hash_fallbacks += 1
        return [instance]

    def _select_for_key(self, key) -> List[int]:
        cache = self._cache
        entry = None if cache is None else cache.get(key)
        if entry is None:
            instance, table_hit = key_owner(
                key, self._table, self._seed, self._n
            )
            entry = ([instance], table_hit)
            if cache is not None:
                cache.put(key, entry)
        route, table_hit = entry
        # Count per select, not per cache fill: the hit/fallback split
        # the telemetry layer exports stays per-tuple exact.
        if table_hit:
            self.table_hits += 1
        else:
            self.hash_fallbacks += 1
        return route

    def _route_ids(self, ids):
        import numpy as np

        hits = int(np.count_nonzero(self._from_table[ids]))
        self.table_hits += hits
        self.hash_fallbacks += len(ids) - hits
        return self.owners[ids]


class TableFieldsGrouping(Grouping):
    """Fields grouping with an explicit (optional, swappable) table."""

    def __init__(self, key: KeySpec, table=None) -> None:
        self.key_fn = normalize_key_fn(key)
        self.key_spec = key
        self.initial_table = table

    #: the router built per source instance
    router_class = TableRouter

    def build_router(self, context: RouterContext) -> TableRouter:
        return self.router_class(
            self.key_fn,
            _require_destinations(context),
            context.seed,
            self.initial_table,
        )


# ----------------------------------------------------------------------
# Hybrid: locality tables for the tail, d-choices for heavy hitters
# ----------------------------------------------------------------------


def split_members(
    key: Any, members: Sequence[int], num_destinations: int
) -> Tuple[int, ...]:
    """The members of ``key``'s split set a stream of
    ``num_destinations`` can address (a stale set may name retired
    instances); at least one, or the set is unusable."""
    valid = tuple(m for m in members if 0 <= m < num_destinations)
    if not valid:
        raise RoutingError(
            f"split set maps {key!r} to {members}, all outside the "
            f"stream's {num_destinations} destinations"
        )
    return valid


class HybridTableRouter(TableRouter):
    """Table router that splits heavy hitters across a small POI set.

    Tail keys route exactly like :class:`TableRouter`
    (:func:`key_owner`). Keys named in the table's *split set* (see
    :meth:`repro.core.routing_table.RoutingTable.split`) are instead
    sent to the least-loaded member of their split tuple — a
    load-dependent decision that is never cached. Per-destination load
    is tracked over *all* selects, so a split key's choice accounts
    for the tail traffic each member already carries.

    The split set arrives inside the table payload, so the rules of
    ``update_table``/``resize`` cover it: any table swap drops the
    route cache and resets the load counters.

    ``route`` credits a batch's tail traffic to the load counters at
    once where ``select`` credits it tuple by tuple: split keys stay
    inside their member set either way, the member sequence may differ.
    """

    deterministic = False

    def __init__(
        self, key_fn, num_destinations: int, seed: int, table
    ) -> None:
        super().__init__(key_fn, num_destinations, seed, table)
        #: tuples routed through the split set (telemetry)
        self.split_routes = 0

    def _set_table(self, table) -> None:
        #: bound ``table.split`` when the table carries one (plain
        #: lookup-only table objects degrade to pure table routing)
        self._split_fn = getattr(table, "split", None)
        self._sent = [0] * self._n
        super()._set_table(table)

    @property
    def sent_counts(self) -> List[int]:
        """Per-destination send counts (copy, for tests/telemetry)."""
        return list(self._sent)

    def select(self, values: tuple) -> List[int]:
        key = self._key_fn(values)
        split_fn = self._split_fn
        if split_fn is not None:
            members = split_fn(key)
            if members:
                sent = self._sent
                dst = min(
                    split_members(key, members, self._n),
                    key=sent.__getitem__,
                )
                sent[dst] += 1
                self.split_routes += 1
                return [dst]
        route = self._select_for_key(key)
        self._sent[route[0]] += 1
        return route

    def _reresolve(self) -> None:
        #: id → valid split members
        self._splits: Dict[int, Tuple[int, ...]] = {}
        super()._reresolve()

    def _extend(self) -> None:
        known = len(self.owners)
        super()._extend()
        split_fn = self._split_fn
        if split_fn is None:
            return
        keys = self.vocab.keys
        for kid in range(known, len(keys)):
            members = split_fn(keys[kid])
            if members:
                self._splits[kid] = split_members(keys[kid], members, self._n)

    def _route_ids(self, ids):
        import numpy as np

        splits = self._splits
        if not splits:
            dst = super()._route_ids(ids)
            self._credit(dst)
            return dst
        split_mask = np.isin(ids, list(splits))
        dst = self.owners[ids]
        self._credit(super()._route_ids(ids[~split_mask]))
        sent = self._sent
        positions = np.flatnonzero(split_mask).tolist()
        for index, kid in zip(positions, ids[split_mask].tolist()):
            choice = min(splits[kid], key=sent.__getitem__)
            dst[index] = choice
            sent[choice] += 1
        self.split_routes += len(positions)
        return dst

    def _credit(self, dst) -> None:
        """Credit a batch of tail routes to the load counters."""
        import numpy as np

        tail = np.bincount(dst, minlength=self._n).tolist()
        self._sent = list(map(operator.add, self._sent, tail))


class HybridTableFieldsGrouping(TableFieldsGrouping):
    """Table fields grouping whose router honors the table's split
    set: locality-aware routing for the tail, d-choices splitting for
    the heavy hitters the manager marks each round."""

    router_class = HybridTableRouter


# ----------------------------------------------------------------------
# Global / broadcast
# ----------------------------------------------------------------------


class _ConstantRouter(Router):
    def __init__(self, targets: List[int], context: RouterContext) -> None:
        self._targets = targets
        self.stream_name = context.stream_name

    def select(self, values: tuple) -> List[int]:
        return list(self._targets)


class GlobalGrouping(Grouping):
    """Everything goes to instance 0."""

    def build_router(self, context: RouterContext) -> Router:
        _require_destinations(context)
        return _ConstantRouter([0], context)


class BroadcastGrouping(Grouping):
    """Every emission is replicated to every destination instance."""

    def build_router(self, context: RouterContext) -> Router:
        n = _require_destinations(context)
        return _ConstantRouter(list(range(n)), context)


# ----------------------------------------------------------------------
# Partial key grouping (power of d choices)
# ----------------------------------------------------------------------

#: seed stride separating the d candidate hash functions
_CANDIDATE_SEED_STRIDE = 0x9E3779B9


def candidate_instances(
    key: Any, seed: int, num_destinations: int, d: int
) -> Tuple[int, ...]:
    """The ``d`` candidate destinations of ``key`` (one per derived
    hash function). Candidates may collide on small clusters — the
    split is then narrower than ``d``, never wrong."""
    return tuple(
        hash_owner(key, seed + i * _CANDIDATE_SEED_STRIDE, num_destinations)
        for i in range(d)
    )


def candidates_of(
    keys: Sequence[Any], seed: int, num_destinations: int, d: int
) -> List[Tuple[int, ...]]:
    """:func:`candidate_instances` of every key of ``keys``: one
    key-bytes pass and ``d`` mixes over the batch."""
    crcs = _key_crcs(keys)
    columns = [
        _hash_owners(
            crcs, seed + i * _CANDIDATE_SEED_STRIDE, num_destinations
        ).tolist()
        for i in range(d)
    ]
    return list(zip(*columns))


class _DChoicesRouter(Router):
    """d-choices router caching each key's *candidate tuple* only —
    the final pick depends on the live per-destination send counts, so
    it is always recomputed against the cheapest candidate.

    ``route`` keeps the candidates per interned key id instead and
    picks per tuple (inherently sequential: each pick feeds the
    counters the next one reads), identical to ``select`` on the same
    tuple sequence."""

    #: the batch state's :class:`Vocab`, created by the first ``route``
    vocab: Optional[Vocab] = None

    def __init__(
        self, key_fn, num_destinations: int, seed: int, d: int = 2
    ) -> None:
        self._key_fn = key_fn
        self._n = num_destinations
        self._seed = seed
        self._d = d
        self._sent = [0] * num_destinations
        self._cache = _RouteCache()

    @property
    def sent_counts(self) -> List[int]:
        """Per-destination send counts (copy, for tests/telemetry)."""
        return list(self._sent)

    def _candidates(self, key) -> Tuple[int, ...]:
        return candidate_instances(key, self._seed, self._n, self._d)

    def select(self, values: tuple) -> List[int]:
        key = self._key_fn(values)
        candidates = self._cache.get(key)
        if candidates is None:
            candidates = self._candidates(key)
            self._cache.put(key, candidates)
        sent = self._sent
        dst = min(candidates, key=sent.__getitem__)
        sent[dst] += 1
        return [dst]

    def route(self, values: Sequence[tuple]):
        import numpy as np

        if self.vocab is None:
            self.vocab, self._cands = Vocab(), []
        ids = self.vocab.encode(list(map(self._key_fn, values)))
        cands = self._cands  # id → candidate tuple
        new_keys = self.vocab.keys[len(cands):]
        if new_keys:
            cands += candidates_of(new_keys, self._seed, self._n, self._d)
        sent = self._sent
        dst: List[int] = []
        for candidates in map(cands.__getitem__, ids.tolist()):
            choice = min(candidates, key=sent.__getitem__)
            dst.append(choice)
            sent[choice] += 1
        return np.array(dst, dtype=np.int64), ids, None

    def reset_sent(self) -> None:
        """Zero the per-destination send counts. Called on
        reconfiguration so stale pre-round load does not bias the
        post-round choices (the counts describe traffic that no longer
        predicts the new placement's load)."""
        self._sent = [0] * self._n

    def resize(self, num_destinations: int, table=None) -> None:
        """Drop the candidate caches (candidates are taken modulo the
        old width) and re-dimension the send counters."""
        self._n = _checked_width(num_destinations)
        self.reset_sent()
        self._cache = _RouteCache()
        self._cands = []


class PartialKeyGrouping(Grouping):
    """"Power of d choices" key routing (Nasir et al., ICDE'15;
    d = 2 is the paper's partial key grouping).

    Splits each key over ``d`` candidate instances, picking the least
    loaded one locally — far better load balance than hash fields
    grouping under skew. Split keys hold *partial* aggregates per
    instance; pair the stage with a downstream merge
    (:class:`~repro.engine.operators.PartialCountBolt` feeding a
    :class:`~repro.engine.operators.SumBolt` over a fields-grouped
    stream) and stateful counting stays exact.
    """

    def __init__(self, key: KeySpec, d: int = 2) -> None:
        if d < 2:
            raise RoutingError(f"d must be >= 2, got {d}")
        self.key_fn = normalize_key_fn(key)
        self.key_spec = key
        self.d = d

    def build_router(self, context: RouterContext) -> Router:
        return _DChoicesRouter(
            self.key_fn,
            _require_destinations(context),
            context.seed,
            d=self.d,
        )


# ----------------------------------------------------------------------
# Custom
# ----------------------------------------------------------------------


class _CustomRouter(Router):
    def __init__(self, fn, context: RouterContext) -> None:
        self._fn = fn
        self._context = context
        self.stream_name = context.stream_name

    def select(self, values: tuple) -> List[int]:
        result = self._fn(values, self._context)
        if isinstance(result, int):
            return [result]
        return list(result)


class CustomGrouping(Grouping):
    """Route with an arbitrary function ``fn(values, context) -> index``
    (or a list of indices). Used for the paper's worst-case policy."""

    def __init__(self, fn: Callable[[tuple, RouterContext], Any]) -> None:
        self.fn = fn

    def build_router(self, context: RouterContext) -> Router:
        _require_destinations(context)
        return _CustomRouter(self.fn, context)
