"""MD5: RFC 1321 vectors, padding edges, stdlib equivalence."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.hashes.md5_ref import md5, md5_hexdigest


class TestRfc1321Vectors:
    # The seven test vectors from RFC 1321 §A.5.
    VECTORS = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789": (
            "d174ab98d277d9f5a5611c2c9f419d9f"
        ),
        b"1234567890" * 8: "57edf4a22be3c955ac49da2e2107b67a",
    }

    @pytest.mark.parametrize("message,expected", sorted(VECTORS.items()))
    def test_vector(self, message, expected):
        assert md5_hexdigest(message) == expected


class TestPaddingBoundaries:
    @pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 256])
    def test_lengths_around_block_boundaries(self, length):
        data = (b"abcdefgh" * 64)[:length]
        assert md5(data) == hashlib.md5(data).digest()


class TestStdlibEquivalence:
    @given(st.binary(max_size=300))
    def test_matches_hashlib(self, data):
        assert md5(data) == hashlib.md5(data).digest()

    def test_digest_is_16_bytes(self):
        assert len(md5(b"anything")) == 16

    def test_cache_line_sized_input(self):
        line = bytes(range(256))
        assert md5(line) == hashlib.md5(line).digest()
