"""AES-128: FIPS-197 vectors, inverse cipher, key handling."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AES128, _SBOX, _INV_SBOX, _gmul


class TestFips197Vectors:
    def test_appendix_b_encrypt(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_appendix_c1_encrypt(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_appendix_c1_decrypt(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ciphertext = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        expected = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert AES128(key).decrypt_block(ciphertext) == expected


class TestRoundTrip:
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_decrypt_inverts_encrypt(self, key, block):
        aes = AES128(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    @given(st.binary(min_size=16, max_size=16))
    def test_encryption_changes_block(self, block):
        aes = AES128(b"\x00" * 16)
        assert aes.encrypt_block(block) != block or block == aes.encrypt_block(block)
        # At minimum: decrypting a different block gives a different result.
        other = bytes(b ^ 0xFF for b in block)
        assert aes.encrypt_block(block) != aes.encrypt_block(other)

    def test_different_keys_different_ciphertexts(self):
        block = bytes(16)
        assert AES128(b"\x00" * 16).encrypt_block(block) != AES128(b"\x01" * 16).encrypt_block(block)


class TestDiffusion:
    def test_single_bit_flip_diffuses(self):
        # The §I diffusion property: one plaintext bit flips ~half the
        # ciphertext bits.
        aes = AES128(b"\x5a" * 16)
        base = aes.encrypt_block(bytes(16))
        flipped = aes.encrypt_block(b"\x01" + bytes(15))
        distance = sum(
            bin(a ^ b).count("1") for a, b in zip(base, flipped)
        )
        assert 40 <= distance <= 88  # 128 bits; expect ~64


class TestStructure:
    def test_sbox_is_permutation(self):
        assert sorted(_SBOX) == list(range(256))

    def test_inv_sbox_inverts_sbox(self):
        for value in range(256):
            assert _INV_SBOX[_SBOX[value]] == value

    def test_sbox_tables_pinned(self):
        # The whole of both tables, as FIPS-197 Figures 7 and 14 print them.
        assert hashlib.sha256(bytes(_SBOX)).hexdigest() == (
            "c2d8e5eed6cbebd8625fc18f81486a7733c04f9b0129ffbe974c68b90308b4f2"
        )
        assert hashlib.sha256(bytes(_INV_SBOX)).hexdigest() == (
            "93631b0726f6fe6629daa743ee51b49f4477ed07391b68eeea0672a4a90018aa"
        )

    def test_sbox_known_entries(self):
        # FIPS-197 Figure 7 spot checks.
        assert _SBOX[0x00] == 0x63
        assert _SBOX[0x53] == 0xED
        assert _SBOX[0xFF] == 0x16

    def test_gmul_known_products(self):
        # {57} x {83} = {c1} — FIPS-197 §4.2 example.
        assert _gmul(0x57, 0x83) == 0xC1
        assert _gmul(0x57, 0x13) == 0xFE


class TestValidation:
    @pytest.mark.parametrize("size", [0, 15, 17, 32])
    def test_bad_key_size_rejected(self, size):
        with pytest.raises(ValueError, match="16 bytes"):
            AES128(b"k" * size)

    @pytest.mark.parametrize("size", [0, 15, 17])
    def test_bad_block_size_rejected(self, size):
        aes = AES128(b"\x00" * 16)
        with pytest.raises(ValueError, match="16 bytes"):
            aes.encrypt_block(b"p" * size)
        with pytest.raises(ValueError, match="16 bytes"):
            aes.decrypt_block(b"c" * size)
