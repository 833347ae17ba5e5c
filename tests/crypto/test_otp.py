"""One-time-pad generators: determinism, uniqueness, diffusion."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.otp import (
    _GAMMA,
    _MASK64,
    AesPadGenerator,
    ShakePadGenerator,
    SplitmixPadGenerator,
    _splitmix64,
)

GENERATORS = [SplitmixPadGenerator, AesPadGenerator]


@pytest.mark.parametrize(
    "generator_cls", [SplitmixPadGenerator, ShakePadGenerator, AesPadGenerator]
)
def test_pad_int_is_the_pads_little_endian_integer(generator_cls):
    gen = generator_cls(bytes(range(16)))
    for length in range(1, 513):
        address, counter = 977 * length, length % 29
        expected = int.from_bytes(gen.pad(address, counter, length), "little")
        assert gen.pad_int(address, counter, length) == expected, length


def _scalar_splitmix_pad(key: bytes, address: int, counter: int, length: int) -> bytes:
    """The splitmix pad one interpreted step per 8-byte word."""
    k0, k1 = struct.unpack("<QQ", key)
    _, a = _splitmix64((k0 ^ address) & _MASK64)
    _, b = _splitmix64((k1 ^ counter) & _MASK64)
    state = (a ^ (b * _GAMMA)) & _MASK64
    words = []
    for _ in range((length + 7) // 8):
        state, word = _splitmix64(state)
        words.append(word)
    return struct.pack(f"<{len(words)}Q", *words)[:length]


def test_splitmix_swar_halves_match_the_scalar_stream():
    key = b"\x5a" * 8 + b"\x3c" * 8
    gen = SplitmixPadGenerator(key)
    for length in range(0, 513):
        address, counter = (1 << 63) + length, (1 << 40) - length
        assert gen.pad(address, counter, length) == _scalar_splitmix_pad(
            key, address, counter, length
        ), length


@pytest.mark.parametrize("generator_cls", GENERATORS)
class TestPadContract:
    def test_deterministic(self, generator_cls):
        a = generator_cls(b"\x07" * 16)
        b = generator_cls(b"\x07" * 16)
        assert a.pad(42, 3, 256) == b.pad(42, 3, 256)

    def test_requested_length(self, generator_cls):
        gen = generator_cls(b"\x07" * 16)
        for length in (1, 8, 15, 16, 17, 64, 256):
            assert len(gen.pad(1, 1, length)) == length

    def test_counter_changes_pad(self, generator_cls):
        gen = generator_cls(b"\x07" * 16)
        assert gen.pad(5, 1, 64) != gen.pad(5, 2, 64)

    def test_address_changes_pad(self, generator_cls):
        gen = generator_cls(b"\x07" * 16)
        assert gen.pad(5, 1, 64) != gen.pad(6, 1, 64)

    def test_key_changes_pad(self, generator_cls):
        assert generator_cls(b"\x00" * 16).pad(5, 1, 64) != generator_cls(b"\x01" * 16).pad(5, 1, 64)

    def test_bad_key_rejected(self, generator_cls):
        with pytest.raises(ValueError):
            generator_cls(b"short")


class TestUniqueness:
    def test_no_pad_reuse_over_grid(self):
        gen = SplitmixPadGenerator(b"\x99" * 16)
        pads = {
            gen.pad(address, counter, 32)
            for address in range(64)
            for counter in range(16)
        }
        assert len(pads) == 64 * 16

    def test_consecutive_addresses_uncorrelated(self):
        gen = SplitmixPadGenerator(b"\x99" * 16)
        a = int.from_bytes(gen.pad(100, 1, 256), "little")
        b = int.from_bytes(gen.pad(101, 1, 256), "little")
        distance = (a ^ b).bit_count()
        assert 850 <= distance <= 1200  # ~1024 of 2048 bits


class TestDiffusion:
    def test_counter_bump_rerandomises_half_the_bits(self):
        # This is the property that defeats DCW/FNW on encrypted NVM
        # (Fig. 13): a rewrite takes a new counter, hence a fresh pad.
        gen = SplitmixPadGenerator(b"\x42" * 16)
        total = 0
        trials = 50
        for counter in range(trials):
            a = int.from_bytes(gen.pad(7, counter, 256), "little")
            b = int.from_bytes(gen.pad(7, counter + 1, 256), "little")
            total += (a ^ b).bit_count()
        mean_fraction = total / trials / 2048
        assert 0.47 <= mean_fraction <= 0.53

    def test_pad_bytes_look_balanced(self):
        gen = SplitmixPadGenerator(b"\x42" * 16)
        pad = gen.pad(1, 1, 4096)
        ones = int.from_bytes(pad, "little").bit_count()
        assert 0.47 <= ones / (4096 * 8) <= 0.53


class TestAesPadSpecifics:
    def test_block_structure(self):
        gen = AesPadGenerator(b"\x10" * 16)
        pad = gen.pad(3, 9, 48)
        # Each 16-byte block is an independent AES output: no two equal.
        blocks = [pad[i : i + 16] for i in range(0, 48, 16)]
        assert len(set(blocks)) == 3

    def test_prefix_stability(self):
        # Shorter pads are prefixes of longer ones (same nonce sequence).
        gen = AesPadGenerator(b"\x10" * 16)
        assert gen.pad(3, 9, 48)[:16] == gen.pad(3, 9, 16)
