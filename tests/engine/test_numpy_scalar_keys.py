"""A numpy scalar key is the Python value it equals.

``np.int64(1) == 1`` and ``np.str_("a") == "a"``, so a state dict, a
routing table or a vocabulary holds either as one key; they must hash,
size and fingerprint as one too, on the per-tuple path and on the batch
path, whichever of the two a memo saw first. Skipped without numpy.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.routing_table import RoutingTable  # noqa: E402
from repro.engine import FieldsGrouping  # noqa: E402
from repro.engine.backends.vectorized import _modeled_sizes  # noqa: E402
from repro.engine.grouping import (  # noqa: E402
    RouterContext,
    canonical_key,
    clear_stable_hash_memo,
    stable_hash,
    stable_hashes,
)
from repro.engine.tuples import field_size  # noqa: E402

#: (numpy scalar, the Python value it equals)
PAIRS = [
    (np.int64(1), 1),
    (np.int32(-7), -7),
    (np.uint8(3), 3),
    (np.True_, True),
    (np.False_, 0),
    (np.float64(2.0), 2),
    (np.float32(1.5), 1.5),
    (np.str_("Zürich"), "Zürich"),
    (np.bytes_(b"ab"), b"ab"),
    ((np.int64(4), np.str_("x")), (4, "x")),
]


@pytest.mark.parametrize("scalar, value", PAIRS)
def test_canonical_key_is_the_python_value(scalar, value):
    key = canonical_key(scalar)
    assert key == canonical_key(value)
    assert repr(key) == repr(canonical_key(value))


@pytest.mark.parametrize("scalar, value", PAIRS)
def test_scalar_path_hashes_alike_whichever_comes_first(scalar, value):
    for seed in (0, 7):
        clear_stable_hash_memo()
        first = stable_hash(scalar, seed)
        clear_stable_hash_memo()
        assert stable_hash(value, seed) == first
        assert stable_hash(scalar, seed) == first
    clear_stable_hash_memo()


@pytest.mark.parametrize("scalar, value", PAIRS)
def test_field_size_is_the_python_value_size(scalar, value):
    assert field_size(scalar) == field_size(value)


def test_batch_path_hashes_and_sizes_alike():
    scalars = [scalar for scalar, _ in PAIRS]
    values = [value for _, value in PAIRS]
    assert stable_hashes(scalars, 3).tolist() == (
        stable_hashes(values, 3).tolist()
    )
    for column in ([np.int64(5)] * 3, [np.True_, np.False_], scalars):
        python = [canonical_key(key) for key in column]
        assert _modeled_sizes([(key,) for key in column], 20).tolist() == (
            _modeled_sizes([(key,) for key in python], 20).tolist()
        )


def test_router_sends_equal_keys_to_one_instance():
    context = RouterContext(
        stream_name="np",
        src_instance=0,
        src_server=0,
        dst_placements=[0] * 7,
        seed=11,
    )
    router = FieldsGrouping(0).build_router(context)
    for scalar, value in PAIRS:
        clear_stable_hash_memo()
        owner = router.select((scalar,))
        assert router.select((value,)) == owner
        dst, _, _ = router.route([(scalar,), (value,)])
        assert dst.tolist() == owner * 2


def test_table_fingerprint_is_the_python_keys():
    scalars = {scalar: i for i, (scalar, _) in enumerate(PAIRS)}
    values = {value: i for i, (_, value) in enumerate(PAIRS)}
    assert RoutingTable(scalars).fingerprint() == (
        RoutingTable(values).fingerprint()
    )
