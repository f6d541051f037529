"""Tests for tuple sizing, operators, and the keyed-state API."""

import pytest

from repro.engine import CountBolt, Padding, StatefulBolt
from repro.engine.operators import (
    FunctionBolt,
    IteratorSpout,
    OperatorContext,
    PassThroughBolt,
)
from repro.engine.tuples import Tuple, field_size, make_tuple, payload_size


def _context(instance=0, num=1, server=0):
    return OperatorContext("op", instance, num, server, lambda: 1.5)


def test_padding_validation_and_equality():
    with pytest.raises(ValueError):
        Padding(-1)
    assert Padding(100) == Padding(100)
    assert Padding(100) != Padding(99)
    assert hash(Padding(5)) == hash(Padding(5))


def test_field_sizes():
    assert field_size(Padding(1000)) == 1000
    assert field_size("abc") == 3
    assert field_size("héllo") == len("héllo".encode("utf-8"))
    assert field_size(b"1234") == 4
    assert field_size(7) == 8
    assert field_size(3.14) == 8
    assert field_size(True) == field_size(1) == 8  # the int it equals
    assert field_size(None) == 0
    assert field_size(("ab", 1)) == 10
    assert field_size(object()) == 16


def test_payload_and_tuple_size():
    values = ("asia", 42, Padding(500))
    assert payload_size(values) == 4 + 8 + 500
    assert payload_size(()) == 0
    tup = make_tuple(values, header_bytes=84)
    assert tup.size == 84 + 512
    assert tup.values == values


class _Str(str):
    pass


class _Bytes(bytes):
    pass


@pytest.mark.parametrize(
    "value",
    [
        "",
        "tag",
        "héllo",
        "日本語",
        "a\x7f",
        "a\x80",
        "\U0001f600",
        _Str(""),
        _Str("tag"),
        _Str("naïve"),
        b"",
        b"\xff\x00",
        _Bytes(b"1234"),
    ],
    ids=repr,
)
def test_text_fields_size_as_their_utf8_bytes(value):
    """The ASCII / exact-class fast paths of ``field_size`` and
    ``payload_size`` read what the encoding would: empty, 7-bit edge,
    multi-byte and subclass values alike."""
    expected = len(
        value if isinstance(value, bytes) else str(value).encode("utf-8")
    )
    assert field_size(value) == expected
    assert payload_size((value,)) == expected
    assert payload_size((value, 3, value)) == 2 * expected + 8


def test_tuple_ids_unique_and_root_defaults_to_self():
    first = make_tuple(("a",), 0)
    second = make_tuple(("b",), 0)
    assert first.id != second.id
    assert first.root_id == first.id
    child = make_tuple(("c",), 0, root_id=first.root_id)
    assert child.root_id == first.id


def test_context_emit_and_drain():
    context = _context()
    context.emit(("a", 1))
    context.emit(["b", 2])
    assert context._drain() == [("a", 1), ("b", 2)]
    assert context._drain() == []
    assert context.now == 1.5


def test_count_bolt_counts_and_forwards():
    bolt = CountBolt(0, forward=True)
    context = _context()
    bolt.process(make_tuple(("asia", "#java"), 0), context)
    bolt.process(make_tuple(("asia", "#ruby"), 0), context)
    assert bolt.count("asia") == 2
    assert bolt.count("europe") == 0
    assert len(context._drain()) == 2


def test_count_bolt_sink_mode():
    bolt = CountBolt(1, forward=False)
    context = _context()
    bolt.process(make_tuple(("asia", "#java"), 0), context)
    assert bolt.count("#java") == 1
    assert context._drain() == []


def test_count_bolt_callable_key():
    bolt = CountBolt(key=lambda values: values[0].upper(), forward=False)
    bolt.process(make_tuple(("asia",), 0), _context())
    assert bolt.count("ASIA") == 1


def test_stateful_extract_and_install():
    bolt = CountBolt(0, forward=False)
    context = _context()
    for key in ["a", "a", "b", "c"]:
        bolt.process(make_tuple((key,), 0), context)
    extracted = bolt.extract_state(["a", "b", "missing"])
    assert extracted == {"a": 2, "b": 1}
    assert bolt.state == {"c": 1}
    bolt.install_state({"a": 2, "c": 5})
    # "c" merges by addition (CountBolt.merge_state_entry).
    assert bolt.state == {"a": 2, "c": 6}


def test_stateful_default_merge_keeps_local():
    class Keeper(StatefulBolt):
        def process(self, tup, context):
            pass

    bolt = Keeper()
    bolt.state["k"] = "mine"
    bolt.install_state({"k": "theirs"})
    assert bolt.state["k"] == "mine"


def test_state_for_with_default_factory():
    class Tracker(StatefulBolt):
        def process(self, tup, context):
            self.state_for(tup.values[0], list).append(tup.values[1])

    bolt = Tracker()
    bolt.process(make_tuple(("k", 1), 0), _context())
    bolt.process(make_tuple(("k", 2), 0), _context())
    assert bolt.state["k"] == [1, 2]


def test_pass_through_bolt():
    bolt = PassThroughBolt()
    context = _context()
    bolt.process(make_tuple(("x", 1), 0), context)
    assert context._drain() == [("x", 1)]


def test_pass_through_with_transform():
    bolt = PassThroughBolt(lambda values: (values[0].lower(),))
    context = _context()
    bolt.process(make_tuple(("HELLO",), 0), context)
    assert context._drain() == [("hello",)]


def test_function_bolt_fan_out_and_filter():
    bolt = FunctionBolt(lambda values: [(w,) for w in values[0].split()])
    context = _context()
    bolt.process(make_tuple(("a b c",), 0), context)
    assert context._drain() == [("a",), ("b",), ("c",)]
    bolt.process(make_tuple(("",), 0), context)
    assert context._drain() == []


def test_iterator_spout_drains_and_finishes():
    spout = IteratorSpout(lambda ctx: [("a",), ("b",)])
    context = _context()
    spout.open(context)
    assert spout.next_tuple(context) is True
    assert spout.next_tuple(context) is True
    assert context._drain() == [("a",), ("b",)]
    assert spout.finished is False
    assert spout.next_tuple(context) is False
    assert spout.finished is True
    assert spout.emitted == 2


def test_iterator_spout_per_instance_shards():
    spout = IteratorSpout(lambda ctx: [(ctx.instance_index,)])
    context = _context(instance=3)
    spout.open(context)
    spout.next_tuple(context)
    assert context._drain() == [(3,)]
