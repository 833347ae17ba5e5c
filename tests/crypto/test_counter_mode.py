"""Counter-mode engine: round trips, involution, OTP-reuse detection, the
shared pad memo."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.counter_mode import _PAD_MEMO_CAP, CounterModeEngine, OtpReuseError
from repro.crypto.otp import AesPadGenerator, ShakePadGenerator


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


def fresh_memo(engine: CounterModeEngine, nbytes: int = 256) -> dict[int, int]:
    """The engine's pad memo for ``nbytes``-byte lines, emptied first: the
    default-generator memos are shared by the whole process."""
    memo = engine._memo(nbytes)
    memo.clear()
    return memo


class TestSharedPadMemo:
    KEY = b"\x5a" * 16

    def test_every_memo_entry_is_the_fresh_pad(self):
        rng = random.Random(7)
        first, second = CounterModeEngine(key=self.KEY), CounterModeEngine(key=self.KEY)
        reference = ShakePadGenerator(self.KEY)
        triples = [
            (rng.randrange(2**32), rng.randrange(1, 2**28), rng.choice((1, 16, 64, 256, 512)))
            for _ in range(300)
        ]
        for length in {length for _, _, length in triples}:
            fresh_memo(first, length)
        for i, (address, counter, length) in enumerate(triples):
            line = rng.randbytes(length)
            engine = first if i % 2 else second
            pad = reference.pad_int(address, counter, length)
            assert engine.seal(line, address, counter) == int.from_bytes(line, "little") ^ pad
            # The other engine finds the same pad.
            assert (second if i % 2 else first).pad_int_for(address, counter, length) == pad
        for address, counter, length in triples:
            assert first._memo(length)[counter << 64 | address] == reference.pad_int(
                address, counter, length
            )

    def test_each_line_length_has_its_own_memo(self):
        engine = CounterModeEngine(key=self.KEY)
        short, full = fresh_memo(engine, 16), fresh_memo(engine, 256)
        assert short is not full
        line = bytes(range(256))
        engine.seal(line, 3, 9)
        sealed_short = engine.seal(line[:16], 3, 9)
        assert sealed_short < 2**128
        assert sealed_short == engine.seal(line, 3, 9) & (2**128 - 1)  # XOF prefix
        assert len(short) == len(full) == 1
        assert short[9 << 64 | 3] == ShakePadGenerator(self.KEY).pad_int(3, 9, 16)

    def test_same_key_shares_other_key_or_explicit_generator_does_not(self, monkeypatch):
        memo = CounterModeEngine(key=self.KEY)._memo(256)
        assert CounterModeEngine(key=self.KEY)._memo(256) is memo
        others = [
            CounterModeEngine(key=b"\xa5" * 16),
            CounterModeEngine(pad_generator=ShakePadGenerator(self.KEY)),
            CounterModeEngine(pad_generator=ShakePadGenerator(self.KEY)),
        ]
        memos = [memo] + [engine._memo(256) for engine in others]
        assert len({id(m) for m in memos}) == len(memos)
        memo.clear()
        CounterModeEngine(key=self.KEY).seal(bytes(256), 1, 1)
        calls = []
        real = ShakePadGenerator.pad_int

        def counted(generator, address, counter, length):
            calls.append((address, counter, length))
            return real(generator, address, counter, length)

        monkeypatch.setattr(ShakePadGenerator, "pad_int", counted)
        for engine in others:
            engine.seal(bytes(256), 1, 1)
        assert len(calls) == len(others)  # none found the shared pad
        CounterModeEngine(key=self.KEY).seal(bytes(256), 1, 1)
        assert len(calls) == len(others)  # the same key did

    def test_reuse_tracking_stays_per_engine(self):
        first = CounterModeEngine(key=self.KEY, track_otp_reuse=True)
        second = CounterModeEngine(key=self.KEY, track_otp_reuse=True)
        first.seal(bytes(256), 4, 2)
        second.seal(bytes(256), 4, 2)  # B's first use of the pair
        with pytest.raises(OtpReuseError):
            first.seal(bytes(256), 4, 2)
        with pytest.raises(OtpReuseError):
            second.seal(bytes(256), 4, 2)

    def test_results_unchanged_across_a_clear_at_the_cap(self):
        engine = CounterModeEngine(key=self.KEY)
        memo = fresh_memo(engine)
        reference = ShakePadGenerator(self.KEY)
        line = bytes(range(256))
        plain = int.from_bytes(line, "little")
        for address in range(_PAD_MEMO_CAP):
            engine.seal(line, address, 1)
        assert len(memo) == _PAD_MEMO_CAP
        # The next miss clears the full memo, then keeps its own pad.
        assert engine.seal(line, _PAD_MEMO_CAP, 1) == plain ^ reference.pad_int(
            _PAD_MEMO_CAP, 1, 256
        )
        assert len(memo) == 1
        for address in (0, _PAD_MEMO_CAP // 2, _PAD_MEMO_CAP - 1):
            assert engine.seal(line, address, 1) == plain ^ reference.pad_int(address, 1, 256)
            assert engine.pad_int_for(address, 1, 256) == reference.pad_int(address, 1, 256)
        assert engine._memo(256) is memo
