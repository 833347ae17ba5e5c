"""Draw-for-draw check of the ``random.Random`` forms the synthesizers inline.

The trace synthesizers (:mod:`repro.workloads.generator`,
:mod:`repro.workloads.worstcase`) call only ``random()`` and
``getrandbits()`` per access and spell out the pure-Python methods built on
them.  Each inlined form below is the one the synthesizers use; every test
runs it and the method on two identically seeded generators and compares
both the values and the generator state afterwards, so a form that drew
one bit more or less would fail even where the values agree.
"""

from __future__ import annotations

import random
from math import ceil, log

import pytest

from repro.workloads.profiles import ALL_PROFILES

DRAWS = 300


def _randbelow(getrandbits, n: int) -> int:
    """``randrange(n)``: CPython's ``getrandbits`` rejection loop."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _pair(seed: int = 2024) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


def _assert_same(method, inlined, reference: random.Random, mirror: random.Random) -> None:
    expected = [method() for _ in range(DRAWS)]
    actual = [inlined() for _ in range(DRAWS)]
    assert actual == expected
    assert mirror.getstate() == reference.getstate()


RANGES = sorted(
    {1, 2, 3, 4, 5, 7, 8}
    | {2**k + d for k in (4, 7, 10, 15, 16) for d in (-1, 0, 1)}
    | {profile.working_set_lines for profile in ALL_PROFILES}
    | {profile.threads for profile in ALL_PROFILES}
    | {128 - 4 + 1}  # nonce start words of a 256-byte line
)


@pytest.mark.parametrize("n", RANGES)
def test_randrange_is_the_bit_length_rejection_loop(n):
    reference, mirror = _pair(n)
    getrandbits = mirror.getrandbits
    _assert_same(lambda: reference.randrange(n), lambda: _randbelow(getrandbits, n),
                 reference, mirror)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 1024])
def test_a_tighter_width_would_change_the_draws(n):
    # Why the synthesizers keep ``n.bit_length()``: at a power of two the
    # tighter ``(n - 1).bit_length()`` draws fewer bits, so the stream
    # (and every trace) would change.
    reference, mirror = _pair(n)
    expected = [reference.randrange(n) for _ in range(DRAWS)]
    k = (n - 1).bit_length()
    tighter = [mirror.getrandbits(k) for _ in range(DRAWS)]
    assert tighter != expected or mirror.getstate() != reference.getstate()


@pytest.mark.parametrize("low, high", [(1, 4), (2, 8)])
def test_randint_is_low_plus_randrange(low, high):
    reference, mirror = _pair(low * 100 + high)
    getrandbits = mirror.getrandbits
    width = high - low + 1
    _assert_same(lambda: reference.randint(low, high),
                 lambda: low + _randbelow(getrandbits, width), reference, mirror)


@pytest.mark.parametrize("mean", [1.0, 12.0, 180.0, 120])
def test_expovariate_is_minus_log_over_the_rate(mean):
    reference, mirror = _pair(int(mean))
    rate = 1.0 / mean
    draw = mirror.random
    _assert_same(lambda: reference.expovariate(rate), lambda: -log(1.0 - draw()) / rate,
                 reference, mirror)


@pytest.mark.parametrize("size", [1, 2, 3, 8, 100, 256])
def test_getrandbits_is_randbytes_as_an_int(size):
    reference, mirror = _pair(size)
    _assert_same(lambda: int.from_bytes(reference.randbytes(size), "little"),
                 lambda: mirror.getrandbits(8 * size), reference, mirror)


def test_random_word_is_randbytes_two_low_byte_first():
    reference, mirror = _pair()

    def inlined() -> bytes:
        word = mirror.getrandbits(16)
        return bytes((word & 0xFF, word >> 8))

    _assert_same(lambda: reference.randbytes(2), inlined, reference, mirror)


@pytest.mark.parametrize("dirtiness", [0.0, 0.25, 0.55, 1.0])
def test_dirty_word_count_is_the_same_sum(dirtiness):
    reference, mirror = _pair()
    words = range(128)
    draw, inlined_draw = reference.random, mirror.random
    _assert_same(lambda: sum([draw() < dirtiness for _ in words]),
                 lambda: len([None for _ in words if inlined_draw() < dirtiness]),
                 reference, mirror)


def _sample_range(getrandbits, n: int, k: int) -> list[int]:
    """``sample(range(n), k)`` as the rewrite path spells it out."""
    picked = []
    if n <= (21 + 4 ** ceil(log(k * 3, 4)) if k > 5 else 21):
        pool = list(range(n))
        for remaining in range(n, n - k, -1):
            bits = remaining.bit_length()
            j = getrandbits(bits)
            while j >= remaining:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[remaining - 1]
    else:
        bits = n.bit_length()
        selected = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            picked.append(j)
    return picked


# (n, k) on both sides of every setsize boundary: k <= 5 keeps setsize at
# 21; for 128 words (a 256-byte line) k = 21 still takes the set branch and
# k = 22 the pool branch; n = 85/86 and 277/278 straddle the k > 5 sizes.
SAMPLES = [
    (1, 1), (8, 4), (21, 4), (22, 4), (21, 5), (22, 5), (85, 6), (86, 6),
    (85, 21), (86, 21), (277, 22), (278, 22), (128, 4), (128, 5), (128, 6),
    (128, 21), (128, 22), (128, 64), (128, 127), (128, 128), (64, 33),
]


@pytest.mark.parametrize("n, k", SAMPLES)
def test_sample_of_a_range_is_the_setsize_split(n, k):
    reference, mirror = _pair(n * 1000 + k)
    getrandbits = mirror.getrandbits
    _assert_same(lambda: reference.sample(range(n), k),
                 lambda: _sample_range(getrandbits, n, k), reference, mirror)


def test_the_sample_boundaries_take_both_branches():
    # The table above must exercise both branches at 128 words.
    def pool_branch(n: int, k: int) -> bool:
        return n <= (21 + 4 ** ceil(log(k * 3, 4)) if k > 5 else 21)

    assert not pool_branch(128, 21) and pool_branch(128, 22)
    assert pool_branch(21, 5) and not pool_branch(22, 5)
