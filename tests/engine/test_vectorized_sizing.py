"""The vectorized backend's batch sizing kernel (DESIGN.md §15.2).

``_modeled_sizes`` sizes a batch column by column; ``payload_size`` is
the scalar rule it must equal for every input. A batch is sized by the
first edge it crosses. A field that edge or a later one routes on is
interned into the routing edge's vocabulary and takes its bytes from
that edge's ``sizes_of_id`` (one entry per vocabulary key). Three
gates:

- Hypothesis properties over every field class, mixed-class columns,
  ragged, zero-width and empty batches, and key columns (one or
  several) whose sizes come from elsewhere (``1`` / ``1.0`` / ``True``,
  text, bytes);
- call-count guards: uniform benchmark-shaped batches, and a whole
  vectorized run of the benchmark's chain, are sized with no
  ``payload_size`` / ``field_size`` call at all, each key of both
  vocabularies exactly once, and each routed field of a batch is
  encoded once;
- the byte model end to end: what a vectorized edge charges as remote
  bytes equals what the DES counts on the same stream (fan-out,
  forwarding chains, hosted emissions and mixed-type keys included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing_table import RoutingTable
from repro.engine import (
    CountBolt,
    FieldsGrouping,
    Padding,
    TableFieldsGrouping,
    TopologyBuilder,
)
from repro.engine.backends import BackendOptions, run_topology
from repro.engine.backends import vectorized
from repro.engine.backends.vectorized import _modeled_sizes
from repro.engine.grouping import Vocab
from repro.engine.operators import IteratorSpout, PassThroughBolt
from repro.engine.tuples import field_size, payload_size


class _Str(str):
    pass


class _Bytes(bytes):
    pass


_ascii = st.text(st.characters(max_codepoint=127), max_size=6)
_scalars = [
    _ascii,
    st.text(max_size=6),
    st.binary(max_size=6),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
    st.integers(0, 5000).map(Padding),
    st.binary(max_size=6).map(bytearray),
    st.builds(object),
    st.text(max_size=6).map(_Str),
    st.binary(max_size=6).map(_Bytes),
]
_any_scalar = st.one_of(_scalars)
_nested = st.one_of(
    st.lists(_any_scalar, max_size=3),
    st.lists(_any_scalar, max_size=3).map(tuple),
    st.tuples(_ascii, st.lists(st.integers(), max_size=2)),
)
# one strategy per column: a single class, bool next to int, nested
# values, or anything at all
_column_kinds = _scalars + [
    st.one_of(st.booleans(), st.integers(0, 1)),
    _nested,
    st.one_of(_any_scalar, _nested),
]


# routing keys: ``1`` / ``1.0`` / ``True`` are one key of one size
_keys = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True),
    _ascii,
    st.text(max_size=6),
    st.binary(max_size=6),
)


def _columns(draw, n_rows, width):
    return [
        draw(
            st.lists(
                draw(st.sampled_from(_column_kinds)),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        for _ in range(width)
    ]


def _rows(columns, n_rows):
    return [tuple(column[i] for column in columns) for i in range(n_rows)]


@st.composite
def _batches(draw):
    n_rows = draw(st.integers(0, 10))
    width = draw(st.integers(0, 4))
    rows = _rows(_columns(draw, n_rows, width), n_rows)
    if draw(st.booleans()):  # ragged: rows cut to their own width
        rows = [row[: draw(st.integers(0, width))] for row in rows]
    return rows


@st.composite
def _keyed_batches(draw):
    """A batch whose fields ``key_fields`` hold routing keys."""
    n_rows = draw(st.integers(0, 10))
    width = draw(st.integers(1, 4))
    key_fields = draw(st.sets(st.integers(0, width - 1), min_size=1))
    columns = _columns(draw, n_rows, width)
    for field in key_fields:
        columns[field] = draw(
            st.lists(_keys, min_size=n_rows, max_size=n_rows)
        )
    return _rows(columns, n_rows), key_fields


@settings(max_examples=300, deadline=None)
@given(_batches(), st.integers(0, 200))
def test_modeled_sizes_equal_the_scalar_rule(values, header):
    sizes = _modeled_sizes(values, header)
    assert sizes.dtype == np.int64
    assert sizes.shape == (len(values),)
    assert sizes.tolist() == [payload_size(v) + header for v in values]


@settings(max_examples=300, deadline=None)
@given(_keyed_batches(), st.integers(0, 200))
def test_key_sizes_given_by_id_equal_the_scalar_rule(keyed, header):
    """The key columns' bytes handed in (as the edges routing on them
    gather them from their ``sizes_of_id``) and the other columns sized
    by column add up to ``payload_size`` per tuple."""
    values, key_fields = keyed
    by_id = {
        field: np.array([field_size(v[field]) for v in values], dtype=np.int64)
        for field in key_fields
    }
    sizes = _modeled_sizes(values, header, by_id)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [payload_size(v) + header for v in values]


def _record_calls(monkeypatch, *names):
    """Wrap the named functions of the vectorized module; every
    argument they are called with lands in the returned list."""
    calls = []
    for name in names:
        real = getattr(vectorized, name)
        monkeypatch.setattr(
            vectorized,
            name,
            lambda value, real=real: calls.append(value) or real(value),
        )
    return calls


@pytest.mark.parametrize(
    "payload",
    [lambda i: bytes(i % 7), lambda i: Padding(100 + i)],
    ids=["bytes", "padding"],
)
def test_uniform_batches_are_sized_without_a_per_tuple_walk(
    monkeypatch, payload
):
    """The benchmark's tuple shapes — ``(str, str, bytes)`` and ``(str,
    str, Padding)`` — take the column passes only: no ``payload_size``
    and no ``field_size`` call, so a tuple-by-tuple walk cannot come
    back unnoticed."""
    values = [(f"tag{i}", "country" * (i % 3), payload(i)) for i in range(64)]
    expected = [payload_size(v) + 84 for v in values]
    calls = _record_calls(monkeypatch, "payload_size", "field_size")
    assert _modeled_sizes(values, 84).tolist() == expected
    assert calls == []
    # the counters do see the fallbacks: a mixed column, a ragged batch
    assert _modeled_sizes([("a", 1), ("b", "c")], 0).tolist() == [9, 2]
    assert _modeled_sizes([("a",), ("b", 2)], 0).tolist() == [1, 9]
    assert len(calls) == 4


def _benchmark_chain():
    """The benchmark's chain in small: ``(tag, country, bytes)`` tuples
    through ``S → A`` by tag (a table) and ``A → B`` by country."""

    def stream(instance):
        for i in range(600):
            yield (f"tag{(i * 7 + instance) % 97}", f"c{i % 5}", bytes(256))

    builder = _source(stream, width=2)
    tags = RoutingTable({f"tag{i}": i % 2 for i in range(0, 97, 3)})
    builder.bolt(
        "A", lambda: CountBolt(0, forward=True), 2,
        inputs={"S": TableFieldsGrouping(0, table=tags)},
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=False), 2,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def test_a_vectorized_run_sizes_each_vocabulary_key_once(monkeypatch):
    """A whole run of the benchmark-shaped chain makes no per-value
    sizing call and walks neither routed column to size it: each key
    of each vocabulary — the tags of ``S->A`` and the countries of
    ``A->B``, which ``S->A`` interns for it — is sized exactly once, in
    interning order, and each routed field of a batch is encoded once.
    The second edge sizes nothing, ``A`` forwards sizes and ids."""
    calls = _record_calls(monkeypatch, "payload_size", "field_size")
    columns = _record_calls(monkeypatch, "_column_sizes")
    encoded = []
    encode = Vocab.encode
    monkeypatch.setattr(
        Vocab,
        "encode",
        lambda vocab, keys: encoded.append((vocab, len(keys)))
        or encode(vocab, keys),
    )
    result = run_topology(
        _benchmark_chain(),
        "vectorized",
        BackendOptions(num_servers=2, batch_size=64),
    )
    assert calls == []
    edges = result.handle.edges_by_stream
    tags = edges["S->A"].router.vocab
    countries = edges["A->B"].router.vocab
    assert len(tags.keys) == 97 and len(countries.keys) == 5
    text = [v for column in columns for v in column if isinstance(v, str)]
    assert [v for v in text if v.startswith("tag")] == tags.keys
    assert [v for v in text if v.startswith("c")] == countries.keys
    # and the payload column, 1 200 values, is the only one walked
    assert sum(map(len, columns)) == 1200 + len(text)
    for edge, vocab in (("S->A", tags), ("A->B", countries)):
        assert len(edges[edge].sizes_of_id) == len(vocab.keys)
    # 20 source batches (600 tuples an instance, 64 a batch), each
    # encoded once per routed field
    routed = [vocab for vocab, count in encoded if count]
    assert routed.count(tags) == routed.count(countries) == 20
    assert len(routed) == 40 and sum(count for _, count in encoded) == 2400


def _mixed_stream(instance, count=240):
    """Fields of every sized kind: ASCII and non-ASCII text, an int and
    a bool sharing a column, bytes, a padding marker, a nested list."""
    for i in range(count):
        tag = f"tag{(i * 7 + instance) % 37}"
        yield (
            tag if i % 5 else tag + "é",
            (i * 3 + instance) % 11,
            bytes(i % 13),
            Padding(50 * (i % 4)),
            i % 2 == 0 if i % 3 else i,
            [i, "x" * (i % 3), None],
        )


def _source(stream, width=3):
    """A builder holding spout ``S``: ``stream(instance)`` per instance."""
    builder = TopologyBuilder()
    builder.spout(
        "S",
        lambda: IteratorSpout(lambda ctx: stream(ctx.instance_index)),
        parallelism=width,
    )
    return builder


def _topology(grouping_a, grouping_b, width=3):
    builder = _source(_mixed_stream, width)
    builder.bolt(
        "A", lambda: CountBolt(0, forward=True), width, inputs={"S": grouping_a}
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=False), width, inputs={"A": grouping_b}
    )
    return builder.build()


def _table_topology():
    tags = RoutingTable({f"tag{i}": i % 3 for i in range(0, 37, 2)})
    numbers = RoutingTable({i: (i + 1) % 3 for i in range(8)})
    return _topology(
        TableFieldsGrouping(0, table=tags),
        TableFieldsGrouping(1, table=numbers),
    )


def _hash_topology():
    return _topology(FieldsGrouping(0), FieldsGrouping(1))


def _fan_out_topology(width=3):
    """S feeds A by tag and C by number: one source batch, two edges."""
    builder = _source(_mixed_stream, width)
    tags = RoutingTable({f"tag{i}": i % 3 for i in range(0, 37, 2)})
    builder.bolt(
        "A", lambda: CountBolt(0, forward=False), width,
        inputs={"S": TableFieldsGrouping(0, table=tags)},
    )
    builder.bolt(
        "C", lambda: CountBolt(1, forward=False), width,
        inputs={"S": FieldsGrouping(1)},
    )
    return builder.build()


def _hosted_topology(width=3):
    """A hosted pass-through bolt re-keys the stream: its emissions are
    new batches, sized by the first edge they cross (``P → B``)."""
    builder = _source(_mixed_stream, width)
    builder.bolt(
        "P",
        lambda: PassThroughBolt(lambda v: (v[1], v[0] + "!") + v[2:]),
        width,
        inputs={"S": FieldsGrouping(1)},
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=False), width,
        inputs={"P": FieldsGrouping(1)},
    )
    return builder.build()


def _three_hop_topology(width=3):
    """A forwarding chain ``S → A → B → C`` keyed on fields 0, 1 and 2:
    ``S->A`` sizes every batch and interns fields 1 and 2 for the two
    edges after it."""
    builder = _source(_mixed_stream, width)
    tags = RoutingTable({f"tag{i}": i % 3 for i in range(0, 37, 2)})
    builder.bolt(
        "A", lambda: CountBolt(0, forward=True), width,
        inputs={"S": TableFieldsGrouping(0, table=tags)},
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=True), width,
        inputs={"A": FieldsGrouping(1)},
    )
    builder.bolt(
        "C", lambda: CountBolt(2, forward=False), width,
        inputs={"B": TableFieldsGrouping(2)},
    )
    return builder.build()


_MIXED_KEYS = [1, True, 1.0, 2, False, 0.5, 7, "1"]


def _mixed_key_stream(instance, count=240):
    """A routing-key column of ``int``, ``bool``, ``float`` and ``str``
    keys, with a tuple key in some batches (size-64 batches 0, 1 and 3
    of each instance) and none in the others."""
    for i in range(count):
        key = (i, "k") if i % 97 == 0 else _MIXED_KEYS[(i + instance) % 8]
        yield (key, f"tag{i % 13}", bytes(i % 29))


def _mixed_key_topology(width=3):
    """S → A by the mixed key (``A`` is hosted: a count of another
    field), A → B by tag."""
    builder = _source(_mixed_key_stream, width)
    builder.bolt(
        "A", lambda: CountBolt(1, forward=True), width,
        inputs={"S": FieldsGrouping(0)},
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=False), width,
        inputs={"A": FieldsGrouping(1)},
    )
    return builder.build()


def _mixed_later_key_topology(width=3):
    """S → A by tag (a forwarding count), A → B by the mixed key: the
    field ``S->A`` interns for ``A->B`` holds ``int``, ``bool``,
    ``float`` and tuple keys (``B`` is hosted: a count of another
    field)."""
    builder = _source(_mixed_key_stream, width)
    builder.bolt(
        "A", lambda: CountBolt(1, forward=True), width,
        inputs={"S": FieldsGrouping(1)},
    )
    builder.bolt(
        "B", lambda: CountBolt(1, forward=False), width,
        inputs={"A": TableFieldsGrouping(0, table=RoutingTable({1: 2}))},
    )
    return builder.build()


@pytest.mark.parametrize(
    "make",
    [
        _table_topology,
        _hash_topology,
        _fan_out_topology,
        _hosted_topology,
        _mixed_key_topology,
        _three_hop_topology,
        _mixed_later_key_topology,
    ],
)
def test_vectorized_edges_charge_the_bytes_the_des_counts(make):
    """Table and hash streams route per tuple identically on both
    backends (DESIGN §15.3), so the modeled bytes that cross servers
    must agree exactly, stream by stream — and every key an edge has
    sized by id carries its ``field_size``."""
    options = lambda: BackendOptions(num_servers=3, batch_size=64)
    reference = run_topology(make(), "reference", options())
    vector = run_topology(make(), "vectorized", options())
    assert vector.received == reference.received
    counted = {
        name: counters.remote_bytes
        for name, counters in reference.handle.metrics.streams.items()
    }
    edges = vector.handle.edges_by_stream
    charged = {name: edge.remote_bytes for name, edge in edges.items()}
    assert charged == counted
    assert all(isinstance(b, int) and b > 0 for b in charged.values())
    for edge in edges.values():
        sized = edge.sizes_of_id.tolist()
        keys = edge.router.vocab.keys[: len(sized)]
        assert sized == list(map(field_size, keys))


def _sized_by_id(edge):
    """Whether every key of the edge's vocabulary has been sized."""
    return len(edge.sizes_of_id) == len(edge.router.vocab.keys) > 0


def test_a_batch_is_sized_by_the_first_edge_it_crosses():
    """Fan-out: the first of the source's edges sizes its batches, its
    key by id and the second edge's by the second edge's ids, which it
    interns for it; a chain's later edges are sized by id the same way.
    Hosted emissions are sized at their first edge by id, tuple keys
    too, and ``1`` / ``1.0`` / ``True``, one key, are 8 bytes."""
    options = BackendOptions(num_servers=3, batch_size=64)
    edges = run_topology(
        _fan_out_topology(), "vectorized", options
    ).handle.edges_by_stream
    assert _sized_by_id(edges["S->A"]) and _sized_by_id(edges["S->C"])
    assert edges["S->A"].interns_for == [edges["S->C"]]
    assert edges["S->C"].interns_for == []

    edges = run_topology(
        _three_hop_topology(), "vectorized", options
    ).handle.edges_by_stream
    assert all(map(_sized_by_id, edges.values()))
    assert edges["S->A"].interns_for == [edges["A->B"], edges["B->C"]]

    edges = run_topology(
        _hosted_topology(), "vectorized", options
    ).handle.edges_by_stream
    assert len(edges["P->B"].sizes_of_id) == len(
        edges["P->B"].router.vocab.keys
    )

    edge = run_topology(
        _mixed_key_topology(), "vectorized", options
    ).handle.edges_by_stream["S->A"]
    vocab = edge.router.vocab
    # 1 / True / 1.0 and False are keys 1 and 0; 3 tuple keys per run
    assert len(vocab.keys) == len(_MIXED_KEYS) - 2 + 3
    assert _sized_by_id(edge)
    assert {vocab.id_of(key) for key in (1, 1.0, True)} == {vocab.id_of(1)}
    assert edge.sizes_of_id[vocab.id_of(True)] == 8
    assert edge.sizes_of_id[vocab.id_of((97, "k"))] == 9
