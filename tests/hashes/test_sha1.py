"""SHA-1: FIPS 180-1 vectors, padding edges, stdlib equivalence."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.hashes.sha1_ref import sha1, sha1_hexdigest


class TestKnownVectors:
    def test_empty(self):
        assert sha1_hexdigest(b"") == "da39a3ee5e6b4b0d3255bfef95601890afd80709"

    def test_abc(self):
        # FIPS 180-1 Appendix A.
        assert sha1_hexdigest(b"abc") == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_two_block_message(self):
        # FIPS 180-1 Appendix B.
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha1_hexdigest(message) == "84983e441c3bd26ebaae4aa1f95129e5e54670f1"

    def test_million_a(self):
        # FIPS 180-1 Appendix C (kept as the one slow-ish canonical case).
        assert sha1_hexdigest(b"a" * 10_000) == hashlib.sha1(b"a" * 10_000).hexdigest()


class TestPaddingBoundaries:
    @pytest.mark.parametrize("length", [0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128])
    def test_lengths_around_block_boundaries(self, length):
        data = bytes(range(256))[:length] * 1 if length <= 256 else b"x" * length
        data = (b"0123456789" * 20)[:length]
        assert sha1(data) == hashlib.sha1(data).digest()


class TestStdlibEquivalence:
    @given(st.binary(max_size=300))
    def test_matches_hashlib(self, data):
        assert sha1(data) == hashlib.sha1(data).digest()

    def test_digest_is_20_bytes(self):
        assert len(sha1(b"anything")) == 20

    def test_cache_line_sized_input(self):
        line = bytes(range(256))
        assert sha1(line) == hashlib.sha1(line).digest()
