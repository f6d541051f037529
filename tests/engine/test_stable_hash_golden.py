"""Golden values of :func:`repro.engine.grouping.stable_hash`.

Every hash owner, every table fingerprint, every campaign baseline and
every fuzz fingerprint is derived from these values; a change to the
key bytes, the CRC or the splitmix finalizer moves all of them at
once. The literals pin the rule itself: ASCII, non-ASCII and quoted
text, the text ``"-0.0"`` (not a float), bytes, a negative int and one
wider than 64 bits, ``True`` / ``None``, both float zeros (one hash),
a plain float and a tuple holding ``-0.0``. A key hashes as the repr of
its canonical key (``grouping.canonical_key``): ``True`` as ``1``,
either float zero as ``0``, ``("a", -0.0)`` as ``("a", 0)``, element by
element inside a tuple.

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
        13229839013201960034,
        18387830508127355459,
        7532798254687601989,
        7532798254687601989,
        15364475034563935417,
        7899929666787026692,
    ),
    7: (
        14277042921693986888,
        12331266554942465669,
        5011308115699798087,
        4274344721397581163,
        6012954329712235050,
        2542062216883433600,
        7958967549373148555,
        15465426940779086201,
        12081830773562936220,
        8664908881609116671,
        8664908881609116671,
        2968605184855089922,
        15519688765593074894,
    ),
    2**64 - 1: (
        13658315641215696849,
        4390898914623384290,
        5088297843613675956,
        15043175662218005197,
        13663212866689952142,
        9328531972116487240,
        4004150558801264014,
        10987766712987127539,
        13437692612084680215,
        8452750716944855814,
        8452750716944855814,
        10732449556602587502,
        12090672961466952794,
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
