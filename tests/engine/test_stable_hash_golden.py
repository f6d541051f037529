"""Golden values of :func:`repro.engine.grouping.stable_hash`.

Every hash owner, every table fingerprint, every campaign baseline and
every fuzz fingerprint is derived from these values; a change to the
key bytes, the CRC or the splitmix finalizer moves all of them at
once. The literals pin the rule itself: ASCII, non-ASCII and quoted
text, the text ``"-0.0"`` (not a float), bytes, a negative int and one
wider than 64 bits, ``True`` / ``None``, both float zeros (one hash),
a plain float and a tuple holding ``-0.0`` (tuples are hashed by their
repr as they are: no zero is rewritten inside one).

No numpy: the ``chaos`` CI job runs this file without it.
"""

import pytest

from repro.engine.grouping import clear_stable_hash_memo, stable_hash

KEYS = (
    "Asia",
    "Zürich ☃",
    "it's \"q\"",
    "-0.0",
    b"\x00ab\xff",
    -7,
    2**64 + 5,
    True,
    None,
    0.0,
    -0.0,
    1.5,
    ("a", -0.0),
)

#: seed → the hash of each of ``KEYS``, in order
GOLDEN = {
    0: (
        2525223100052088934,
        15198061519188717647,
        10311403951684186202,
        10278206061022382271,
        6528783854654588024,
        12424020344806719993,
        8172706047191880702,
        2242572456688633090,
        18387830508127355459,
        8615569657247804280,
        8615569657247804280,
        15364475034563935417,
        4429914956845234507,
    ),
    7: (
        14277042921693986888,
        12331266554942465669,
        5011308115699798087,
        4274344721397581163,
        6012954329712235050,
        2542062216883433600,
        7958967549373148555,
        17175871141565825558,
        12081830773562936220,
        13447773553741155126,
        13447773553741155126,
        2968605184855089922,
        16352692315631102769,
    ),
    2**64 - 1: (
        13658315641215696849,
        4390898914623384290,
        5088297843613675956,
        15043175662218005197,
        13663212866689952142,
        9328531972116487240,
        4004150558801264014,
        16058259457758869981,
        13437692612084680215,
        6320548908092540628,
        6320548908092540628,
        10732449556602587502,
        14041413003920670460,
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_stable_hash_golden_values(seed):
    """Cold (memo cleared before each key) and warm (memo filled by
    the cold pass) calls both read the pinned values."""
    cold = []
    for key in KEYS:
        clear_stable_hash_memo()
        cold.append(stable_hash(key, seed))
    warm = [stable_hash(key, seed) for key in KEYS]
    clear_stable_hash_memo()
    assert tuple(cold) == GOLDEN[seed]
    assert tuple(warm) == GOLDEN[seed]


def test_the_default_seed_is_zero():
    clear_stable_hash_memo()
    assert stable_hash("Asia") == GOLDEN[0][0]
