"""Property-based checks for the elastic-rescaling primitives.

Two facts must hold for *any* key graph and any ``k -> k'``:

- repartitioning for the new width still respects the α balance bound
  (up to the partitioner's documented vertex-granularity slack) — the
  rescale round reuses the same partitioner, so a width change must
  not silently void the balance guarantee;
- the scan migration is exactly the owner-diff: every key whose owner
  changes is shipped, to that owner (completeness), and no key whose
  owner is unchanged moves (minimality). Keys outside the routing
  tables fall back to hashing, and the properties must hold across
  that boundary too. Checked on the code a rescale round runs:
  ``ReconfigurationAgent._rescale_migrate`` under a ``RescaleSpec``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfiguration import (
    MIGRATE,
    ReconfigurationAgent,
    RescaleSpec,
)
from repro.core.routing_table import RoutingTable
from repro.engine.costs import DEFAULT_COSTS
from repro.engine.grouping import key_owner
from repro.engine.operators import CountBolt
from repro.partitioning.graph import Graph
from repro.partitioning.kway import balance_of, partition
from repro.testing.invariants import balance_bound


# ---------------------------------------------------------------------
# strategies


@st.composite
def key_graphs(draw):
    """A small weighted key graph: hot keys, cold keys, random pair
    edges — the shape the manager's statistics collection produces."""
    n = draw(st.integers(min_value=1, max_value=40))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    num_edges = draw(st.integers(min_value=0, max_value=2 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.1, max_value=50.0),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    graph = Graph(n, vertex_weights=weights)
    for u, v, w in edges:
        if u != v:
            graph.add_edge(u, v, w)
    return graph


# ---------------------------------------------------------------------
# balance across any k -> k'


@settings(max_examples=60, deadline=None)
@given(
    graph=key_graphs(),
    old_k=st.integers(min_value=1, max_value=6),
    new_k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    imbalance=st.sampled_from((1.03, 1.1, 1.2)),
)
def test_repartition_for_new_width_respects_alpha(
    graph, old_k, new_k, seed, imbalance
):
    """The assignment produced for the post-rescale width k' stays
    within the α bound the invariant suite enforces on live rounds."""
    parts = partition(graph, new_k, imbalance=imbalance, seed=seed)
    assert len(parts) == graph.num_vertices
    assert all(0 <= p < new_k for p in parts)

    total = graph.total_vertex_weight
    if total <= 0:
        assert balance_of(graph, parts, new_k) == 0.0
        return
    max_vertex = max(
        graph.vertex_weight(v) for v in range(graph.num_vertices)
    )
    bound = balance_bound(total, new_k, max_vertex, imbalance)
    heaviest = balance_of(graph, parts, new_k) * (total / new_k)
    assert heaviest <= bound, (
        f"heaviest part {heaviest:.2f} above bound {bound:.2f} "
        f"for k'={new_k}, α={imbalance}"
    )


@settings(max_examples=40, deadline=None)
@given(
    graph=key_graphs(),
    nparts=st.integers(min_value=1, max_value=6),
)
def test_balance_of_matches_manual_accumulation(graph, nparts):
    parts = partition(graph, nparts, seed=1)
    ratio = balance_of(graph, parts, nparts)
    total = graph.total_vertex_weight
    if total <= 0:
        assert ratio == 0.0
        return
    weights = [0.0] * nparts
    for v, p in enumerate(parts):
        weights[p] += graph.vertex_weight(v)
    assert math.isclose(ratio, max(weights) / (total / nparts))


# ---------------------------------------------------------------------
# scan migration = exact owner diff


class _Metrics:
    def on_keys_migrated(self, count):
        pass


class _ScanningExecutor:
    """What ``_rescale_migrate`` touches of an executor: the operator
    whose state it scans, and the MIGRATEs it hands to ``send_control``
    (kept as ``{peer: [keys]}``)."""

    costs = DEFAULT_COSTS
    metrics = _Metrics()

    def __init__(self, instance, keys):
        self.instance = instance
        self.name = f"A[{instance}]"
        self.operator = CountBolt(0)
        self.operator.state.update(dict.fromkeys(keys, 1))
        self.migrates = {}

    def extract_state(self, keys):
        return self.operator.extract_state(keys)

    def send_control(self, peer, message, size):
        assert message.kind == MIGRATE
        assert peer not in self.migrates, "two MIGRATEs to one peer"
        assert set(message.payload.entries) == set(message.payload.keys)
        self.migrates[peer] = list(message.payload.keys)


def _owner(key, table, n, seed):
    """The tolerant reading of the owner rule (a stale entry past the
    width falls back to the hash), as the rollback uses it."""
    return key_owner(key, table, seed, n, strict=False)[0]


def _scan_moves(keys, old_table, old_n, new_table, new_n, seed):
    """Place ``keys`` on their pre-rescale owners, run every
    participant's scan, and return ``{key: (old, new)}`` of what was
    shipped."""
    participants = list(range(max(old_n, new_n)))
    moves = {}
    for instance in participants:
        held = [
            key
            for key in keys
            if _owner(key, old_table, old_n, seed) == instance
        ]
        executor = _ScanningExecutor(instance, held)
        agent = ReconfigurationAgent(executor, None, 1, participants, [])
        spec = RescaleSpec(new_table, seed, new_n, participants)
        agent._rescale_migrate(spec, round_id=1)
        # one MIGRATE to every other participant, empty or not
        assert sorted(executor.migrates) == [
            peer for peer in participants if peer != instance
        ]
        for peer, shipped in executor.migrates.items():
            for key in shipped:
                assert key not in moves, f"{key!r} shipped twice"
                assert spec.owner_of(key) == peer
                moves[key] = (instance, peer)
        assert set(executor.operator.state) == set(held) - set(moves)
    return moves


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rescale_moves_is_exactly_the_owner_diff(data):
    keys = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=1,
            max_size=60,
            unique=True,
        )
    )
    old_n = data.draw(st.integers(min_value=1, max_value=6))
    new_n = data.draw(st.integers(min_value=1, max_value=6))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))

    def draw_table(n):
        if data.draw(st.booleans()):
            return None  # hash-only tier
        covered = data.draw(
            st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
        )
        return RoutingTable(
            {
                key: data.draw(st.integers(min_value=0, max_value=n - 1))
                for key in covered
            }
        )

    old_table = draw_table(old_n)
    new_table = draw_table(new_n)

    moves = _scan_moves(keys, old_table, old_n, new_table, new_n, seed)

    for key in keys:
        old_owner = _owner(key, old_table, old_n, seed)
        new_owner = _owner(key, new_table, new_n, seed)
        assert 0 <= old_owner < old_n and 0 <= new_owner < new_n
        if old_owner != new_owner:
            # completeness: every owner change is shipped
            assert moves[key] == (old_owner, new_owner)
        else:
            # minimality: unchanged keys never move
            assert key not in moves
    # the scan never ships keys it does not hold
    assert set(moves) <= set(keys)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=100),
        min_size=1,
        max_size=40,
        unique=True,
    ),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_identity_rescale_moves_nothing(keys, n, seed):
    """Same width, same table: every MIGRATE of the scan is empty."""
    table = RoutingTable({key: key % n for key in keys[: len(keys) // 2]})
    assert _scan_moves(keys, table, n, table, n, seed) == {}
    assert _scan_moves(keys, None, n, None, n, seed) == {}


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=100),
        min_size=1,
        max_size=40,
        unique=True,
    ),
    old_n=st.integers(min_value=1, max_value=6),
    new_n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_owners_always_within_width(keys, old_n, new_n, seed):
    """Every owner — tabled or hash-fallback, before and after — must
    address a live instance of its width, including stale table
    entries pointing past the new width (they fall back to hashing)."""
    stale = RoutingTable({key: key % (new_n + 3) for key in keys})
    for key in keys:
        assert 0 <= _owner(key, stale, new_n, seed) < new_n
        assert 0 <= _owner(key, None, old_n, seed) < old_n
