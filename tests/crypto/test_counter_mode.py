"""Counter-mode engine: round trips, involution, OTP-reuse detection."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.crypto.counter_mode import CounterModeEngine, OtpReuseError
from repro.crypto.otp import AesPadGenerator


class TestRoundTrip:
    @given(st.binary(min_size=256, max_size=256), st.integers(0, 2**30), st.integers(1, 2**28))
    def test_decrypt_inverts_encrypt(self, line, address, counter):
        engine = CounterModeEngine()
        assert engine.decrypt(engine.encrypt(line, address, counter), address, counter) == line

    def test_cross_instance_decrypt(self):
        # Ciphertexts written by one engine instance decrypt in another
        # with the same key (the NVM DIMM outlives the controller).
        key = b"\x33" * 16
        line = bytes(range(256))
        ct = CounterModeEngine(key=key).encrypt(line, 9, 4)
        assert CounterModeEngine(key=key).decrypt(ct, 9, 4) == line

    def test_aes_pad_generator_roundtrip(self):
        engine = CounterModeEngine(pad_generator=AesPadGenerator(b"\x44" * 16))
        line = bytes(range(256))
        assert engine.decrypt(engine.encrypt(line, 1, 1), 1, 1) == line

    def test_counter_mode_is_involution(self):
        # encrypt and decrypt are the same XOR.
        engine = CounterModeEngine()
        line = bytes(range(256))
        assert engine.decrypt(line, 5, 5) == engine.encrypt(line, 5, 5)


class TestSecurityProperties:
    def test_wrong_counter_garbles(self):
        engine = CounterModeEngine()
        line = bytes(range(256))
        ct = engine.encrypt(line, 7, 1)
        assert engine.decrypt(ct, 7, 2) != line

    def test_wrong_address_garbles(self):
        engine = CounterModeEngine()
        line = bytes(range(256))
        ct = engine.encrypt(line, 7, 1)
        assert engine.decrypt(ct, 8, 1) != line

    def test_rewrite_diffuses(self):
        # Identical plaintext re-encrypted under the next counter yields a
        # ~50 % different ciphertext — the diffusion of §I.
        engine = CounterModeEngine()
        line = bytes(256)
        a = int.from_bytes(engine.encrypt(line, 3, 1), "little")
        b = int.from_bytes(engine.encrypt(line, 3, 2), "little")
        assert 0.4 <= (a ^ b).bit_count() / 2048 <= 0.6


class TestOtpReuseTracking:
    def test_reuse_raises(self):
        engine = CounterModeEngine(track_otp_reuse=True)
        engine.encrypt(bytes(256), 1, 1)
        with pytest.raises(OtpReuseError):
            engine.encrypt(bytes(256), 1, 1)

    def test_distinct_counters_allowed(self):
        engine = CounterModeEngine(track_otp_reuse=True)
        for counter in range(1, 20):
            engine.encrypt(bytes(256), 1, counter)

    def test_decrypt_never_raises(self):
        engine = CounterModeEngine(track_otp_reuse=True)
        ct = engine.encrypt(bytes(256), 1, 1)
        for _ in range(3):
            engine.decrypt(ct, 1, 1)

    def test_tracking_off_by_default(self):
        engine = CounterModeEngine()
        engine.encrypt(bytes(256), 1, 1)
        engine.encrypt(bytes(256), 1, 1)  # no error


class TestSeal:
    @given(st.binary(min_size=1, max_size=512), st.integers(0, 2**32), st.integers(1, 2**28))
    def test_seal_is_encrypt_as_integer(self, line, address, counter):
        engine = CounterModeEngine()
        sealed = engine.seal(line, address, counter)
        assert sealed == int.from_bytes(engine.encrypt(line, address, counter), "little")
        assert sealed ^ engine.pad_int_for(address, counter, len(line)) == int.from_bytes(
            line, "little"
        )

    def test_seal_tracks_reuse_like_encrypt(self):
        engine = CounterModeEngine(track_otp_reuse=True)
        engine.seal(bytes(256), 1, 1)
        with pytest.raises(OtpReuseError):
            engine.encrypt(bytes(256), 1, 1)
        engine.encrypt(bytes(256), 1, 2)
        with pytest.raises(OtpReuseError):
            engine.seal(bytes(256), 1, 2)
