"""The partitioner's visiting orders: ``random_order`` is ``shuffle``.

Heavy-edge matching and greedy graph growing each draw one random
visiting order per call. They draw it through
:func:`repro.partitioning.graph.random_order`, which inlines
``random.Random.shuffle``'s draws. The partition of every graph depends
on those orders and on the generator state they leave behind, so the
helper must make exactly the calls ``shuffle`` makes: the same
permutation, and the same ``getstate()`` afterwards. This holds on every
interpreter the tier-1 matrix runs.

No numpy: the ``chaos`` CI job runs this file without it.
"""

import ast
import os
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.partitioning
from repro.partitioning.graph import random_order

#: lengths on both sides of the powers of two, where the bit count of
#: the draws changes
_EDGES = sorted(
    {0, 1, 2, 3} | {(1 << k) + d for k in range(2, 12) for d in (-1, 0, 1)}
)


def _shuffled(n: int, rng: random.Random):
    order = list(range(n))
    rng.shuffle(order)
    return order


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.sampled_from(_EDGES), st.integers(0, 3000)),
    seed=st.integers(0, 2**64),
    warm=st.integers(0, 3),
)
@example(n=0, seed=0, warm=0)
@example(n=1, seed=0, warm=0)
@example(n=2, seed=0, warm=0)
@example(n=4096, seed=1, warm=0)
def test_random_order_is_shuffle(n, seed, warm):
    mine = random.Random(seed)
    reference = random.Random(seed)
    for rng in (mine, reference):  # a generator part way through
        for _ in range(warm):
            rng.getrandbits(7)
    assert random_order(n, mine) == _shuffled(n, reference)
    assert mine.getstate() == reference.getstate()


def test_consecutive_orders_stay_in_step():
    """The matching and the growths draw order after order from one
    generator: the states must not drift apart between draws."""
    mine = random.Random(42)
    reference = random.Random(42)
    for n in (5, 1000, 0, 1, 257, 64):
        assert random_order(n, mine) == _shuffled(n, reference)
    assert mine.random() == reference.random()


def _shuffle_calls(path: str):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "shuffle"
    ]


def test_no_partitioner_module_calls_shuffle():
    """A visiting order drawn with ``rng.shuffle`` costs a Python call
    per element; the package draws every order through
    ``random_order``."""
    package = os.path.dirname(repro.partitioning.__file__)
    offenders = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            lines = _shuffle_calls(os.path.join(package, name))
            if lines:
                offenders[name] = lines
    assert offenders == {}
