"""The multiprocess backend's wire encoder (DESIGN.md §16.1, §16.5).

A worker-to-worker message that is plain data — ``str``, ``bytes``,
``int``, ``float``, ``bool``, ``None``, ``tuple``, ``list``, ``dict``,
``set`` — is pickled without the memo, so sending a field the worker
shares copy-on-write with its parent only reads its page. Anything
else is pickled as ``pickle.dumps`` does, memo included. Pinned here:

1. plain messages round-trip exactly and carry no memo opcode;
2. everything else keeps its types and takes the memo path;
3. each worker reports how many of its messages took the memo;
4. the encoder is the one place the backend pickles a message.
"""

import enum
import inspect
import multiprocessing
import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import CountBolt, TopologyBuilder
from repro.engine.backends import BackendOptions, multiprocess, run_topology
from repro.engine.grouping import FieldsGrouping
from repro.engine.operators import IteratorSpout
from repro.engine.tuples import Padding

wire_encode = multiprocess.wire_encode

MEMO_OPCODES = {"MEMOIZE", "BINPUT", "LONG_BINPUT", "PUT"}


def opcodes(blob: bytes) -> set:
    return {op.name for op, _, _ in pickletools.genops(blob)}


def canon(value):
    """``value`` as a structure that tells apart what ``==`` does not:
    the type of every value, and ``-0.0`` from ``0.0``."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(canon(k), canon(v)) for k, v in value.items()])
    if isinstance(value, set):
        return ("set", sorted(repr(canon(v)) for v in value))
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


# ----------------------------------------------------------------------
# 1. plain messages: memo-free, exact
# ----------------------------------------------------------------------

hashable_leaves = st.one_of(
    st.text(),
    st.binary(max_size=64),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([0.0, -0.0, 1e308, -5e-324]),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
hashables = st.recursive(
    hashable_leaves, lambda inner: st.tuples(inner, inner), max_leaves=4
)
plain = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(hashables, inner, max_size=4),
        st.sets(hashables, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(message=plain)
@example(
    message=(
        "DATA",
        "S->A",
        [("naïve", "日本", b"\x00" * 3), (-0.0, 2**100, -(2**70), True)],
        {None: {1, 2}, (1, "x"): [False, 0.0]},
    )
)
def test_a_plain_message_round_trips_without_the_memo(message):
    blob, memo = wire_encode(message)
    assert not memo
    assert not opcodes(blob) & MEMO_OPCODES
    assert canon(pickle.loads(blob)) == canon(message)


def _data_message(tuples=640):
    """A benchmark-shaped DATA message: (tag, country, payload) tuples
    with a distinct 256-byte payload each, and the destination column
    as raw bytes of its wire dtype."""
    values = [(f"tag{i % 97}", f"c{i % 7}", bytes(256)) for i in range(tuples)]
    dst = (np.arange(tuples) % 4).astype(np.uint8)
    return ("DATA", "S->A", values, dst.tobytes(), dst.dtype.char)


def test_a_data_message_is_plain_and_no_larger():
    message = _data_message()
    blob, memo = wire_encode(message)
    assert not memo
    assert not opcodes(blob) & MEMO_OPCODES
    # the memoised form, for comparison, writes a memo entry per object
    assert "MEMOIZE" in opcodes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    assert len(blob) <= len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    _, _, values, dst, wire = pickle.loads(blob)
    assert values == message[2]
    column = np.frombuffer(dst, wire)
    assert column.dtype == np.uint8
    assert column.tolist() == [i % 4 for i in range(640)]


# ----------------------------------------------------------------------
# 2. everything else: the memo path, types kept
# ----------------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1


class Blob(bytes):
    pass


def _cyclic():
    items = [1, "a"]
    items.append(items)
    return items


@pytest.mark.parametrize(
    "field",
    [Padding(4000), Level.LOW, np.int64(7), Blob(b"ab"), _cyclic()],
    ids=["Padding", "IntEnum", "np.int64", "bytes-subclass", "cyclic-list"],
)
def test_anything_else_takes_the_memo_path_and_keeps_its_types(field):
    message = ("DATA", "S->A", [("k", field), ("j", field)], b"\x00\x01", "B")
    blob, memo = wire_encode(message)
    assert memo
    assert blob == pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    values = pickle.loads(blob)[2]
    first, second = values[0][1], values[1][1]
    assert type(first) is type(field)
    # the memo keeps what the tuples shared shared
    assert first is second
    if isinstance(field, list):
        assert first[2] is first
    else:
        assert first == field


def test_a_shared_marker_is_written_once():
    marker = Padding(4000)
    message = ("DATA", "S->A", [(f"k{i}", marker) for i in range(640)])
    blob, memo = wire_encode(message)
    assert memo
    refs = [op for op, _, _ in pickletools.genops(blob) if op.name == "BINGET"]
    assert len(refs) >= 639


# ----------------------------------------------------------------------
# 3. the choice is reported per worker
# ----------------------------------------------------------------------


def _pipeline(field):
    """``S(2) → A(2) → B(2)`` over (tag, country, ``field(i)``) tuples,
    hash-routed on two servers, so both edges send remote DATA."""

    def source(ctx):
        for i in range(400):
            tag = f"tag{(7 * i + ctx.instance_index) % 31}"
            yield (tag, f"c{i % 5}", field(i))

    builder = TopologyBuilder()
    builder.spout("S", lambda: IteratorSpout(source), parallelism=2)
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        2,
        inputs={"S": FieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        2,
        inputs={"A": FieldsGrouping(1)},
    )
    return builder.build()


@pytest.mark.timeout(120)
def test_workers_report_the_messages_that_took_the_memo():
    options = BackendOptions(num_servers=2, batch_size=64, mp_timeout_s=60)
    shared = Padding(64)
    runs = {
        "plain": run_topology(
            _pipeline(lambda i: bytes(32)), "multiprocess", options
        ),
        "padded": run_topology(
            _pipeline(lambda i: shared), "multiprocess", options
        ),
    }
    for name, result in runs.items():
        assert result.processed["B"] == 800, name
        per_server = result.measured["per_server"]
        assert all(stats["ipc_tx_msgs"] > 0 for stats in per_server.values())
        for stats in per_server.values():
            expected = 0 if name == "plain" else stats["ipc_tx_msgs"]
            assert stats["ipc_memo_msgs"] == expected, name
    assert [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-mp-worker")
    ] == []


# ----------------------------------------------------------------------
# 4. one encoder
# ----------------------------------------------------------------------


def test_the_backend_pickles_messages_only_in_its_encoder():
    """Said once: a second ``pickle.dumps`` in the backend would be a
    send path that skips the plain-data rule and the memo count."""
    source = inspect.getsource(multiprocess)
    encoder = inspect.getsource(wire_encode)
    assert encoder.count("pickle.dumps(") == 1
    assert source.count("pickle.dumps(") == 1
    assert source.count(".dump(") == encoder.count(".dump(") == 1
