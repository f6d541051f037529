"""The vectorized backend's batch sizing kernel (DESIGN.md §15.2).

``_modeled_sizes`` sizes a batch column by column; ``payload_size`` is
the scalar rule it must equal for every input. Three gates:

- a Hypothesis property over every field class, mixed-class columns,
  ragged, zero-width and empty batches;
- a call-count guard: uniform benchmark-shaped batches are sized with
  no ``payload_size`` / ``field_size`` call at all;
- the byte model end to end: what a vectorized edge charges as remote
  bytes equals what the DES counts on the same stream.
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
from repro.engine.operators import IteratorSpout
from repro.engine.tuples import payload_size


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


@st.composite
def _batches(draw):
    n_rows = draw(st.integers(0, 10))
    width = draw(st.integers(0, 4))
    columns = [
        draw(
            st.lists(
                draw(st.sampled_from(_column_kinds)),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        for _ in range(width)
    ]
    rows = [tuple(column[i] for column in columns) for i in range(n_rows)]
    if draw(st.booleans()):  # ragged: rows cut to their own width
        rows = [row[: draw(st.integers(0, width))] for row in rows]
    return rows


@settings(max_examples=300, deadline=None)
@given(_batches(), st.integers(0, 200))
def test_modeled_sizes_equal_the_scalar_rule(values, header):
    sizes = _modeled_sizes(values, header)
    assert sizes.dtype == np.int64
    assert sizes.shape == (len(values),)
    assert sizes.tolist() == [payload_size(v) + header for v in values]


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
    calls = []
    for name in ("payload_size", "field_size"):
        real = getattr(vectorized, name)
        monkeypatch.setattr(
            vectorized,
            name,
            lambda value, real=real: calls.append(value) or real(value),
        )
    assert _modeled_sizes(values, 84).tolist() == expected
    assert calls == []
    # the counters do see the fallbacks: a mixed column, a ragged batch
    assert _modeled_sizes([("a", 1), ("b", "c")], 0).tolist() == [9, 2]
    assert _modeled_sizes([("a",), ("b", 2)], 0).tolist() == [1, 9]
    assert len(calls) == 4


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


def _topology(grouping_a, grouping_b, width=3):
    builder = TopologyBuilder()
    builder.spout(
        "S",
        lambda: IteratorSpout(lambda ctx: _mixed_stream(ctx.instance_index)),
        parallelism=width,
    )
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


@pytest.mark.parametrize("make", [_table_topology, _hash_topology])
def test_vectorized_edges_charge_the_bytes_the_des_counts(make):
    """Table and hash streams route per tuple identically on both
    backends (DESIGN §15.3), so the modeled bytes that cross servers
    must agree exactly, stream by stream."""
    options = lambda: BackendOptions(num_servers=3, batch_size=64)
    reference = run_topology(make(), "reference", options())
    vector = run_topology(make(), "vectorized", options())
    assert vector.received == reference.received
    counted = {
        name: counters.remote_bytes
        for name, counters in reference.handle.metrics.streams.items()
    }
    charged = {
        name: edge.remote_bytes
        for name, edge in vector.handle.edges_by_stream.items()
    }
    assert charged == counted
    assert all(isinstance(b, int) and b > 0 for b in charged.values())
