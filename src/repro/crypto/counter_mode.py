"""Counter-mode encryption (CME) engine for data lines.

The engine owns no counter *storage* — in DeWrite the per-line counters live
co-located inside the dedup metadata tables (paper §III-C), and in the
traditional secure NVM baseline they live in a dedicated counter table.  The
caller therefore passes the counter explicitly; this module only guarantees
the cryptographic contract:

- ``seal(line, address, counter)`` is the encryption: the line's
  little-endian integer XOR ``pad(key, address, counter)``, returned as that
  integer — the form :meth:`repro.nvm.memory.NvmMainMemory.write_complete_ns`
  programs, so a kernel's unique write converts its plaintext once and
  never builds ciphertext bytes;
- ``encrypt`` is ``seal`` as bytes, and ``decrypt`` the same XOR (counter
  mode is an involution), so decryption overlaps the NVM read once the
  counter is cached; ``pad_int_for`` hands out the pad itself for callers
  that decrypt or compare in the integer domain;
- an optional OTP-reuse detector raises :class:`OtpReuseError` when a
  (address, counter) pair is used to *seal* twice — the security
  invariant of §II-B that the test suite exercises.
"""

from __future__ import annotations

from repro.crypto.otp import PadGenerator, ShakePadGenerator


class OtpReuseError(RuntimeError):
    """A one-time pad was about to be reused for encryption.

    Counter-mode security collapses if two plaintexts are XORed with the
    same pad; the engine raises rather than silently producing a broken
    ciphertext.
    """


class CounterModeEngine:
    """Encrypt/decrypt 256 B lines with per-line-counter one-time pads."""

    def __init__(
        self,
        pad_generator: PadGenerator | None = None,
        key: bytes = b"\x00" * 16,
        track_otp_reuse: bool = False,
    ) -> None:
        """Create an engine.

        Args:
            pad_generator: pad source; defaults to the fast SHAKE-128 XOF.
            key: 128-bit key used only if ``pad_generator`` is None.
            track_otp_reuse: when True, remember every (address, counter)
                used for encryption and raise :class:`OtpReuseError` on
                reuse.  Costs memory; intended for tests and small runs.
        """
        self._pads = pad_generator if pad_generator is not None else ShakePadGenerator(key)
        self._track = track_otp_reuse
        self._used: set[tuple[int, int]] = set()
        # Pads are pure functions of (address, counter, length), so repeated
        # XORs against the same triple — dedup verify reads decrypt the same
        # stored lines over and over — can reuse the pad.  Cached as ints
        # (the XOR operand), saving one bytes->int conversion per call.
        # Bounded so a multi-million-line run cannot hold every pad ever
        # generated.
        self._pad_cache: dict[tuple[int, int, int], int] = {}
        self._pad_cache_cap = 8192

    def seal(self, plaintext: bytes, address: int, counter: int) -> int:
        """Encrypt one line stored at ``address`` under its ``counter``,
        returning the ciphertext as its little-endian integer.

        Records the (address, counter) pair when OTP reuse is tracked and
        XORs once with the pad.  A sealed pair is fresh (a line's counter
        only grows), so its pad is generated rather than looked up, and it
        enters the shared bounded pad cache: the verify reads and decrypts
        of the line this write stores find it there through
        :meth:`pad_int_for`.
        """
        if self._track:
            token = (address, counter)
            if token in self._used:
                raise OtpReuseError(
                    f"OTP reuse: address {address:#x} counter {counter} already used"
                )
            self._used.add(token)
        n = len(plaintext)
        cache = self._pad_cache
        if len(cache) >= self._pad_cache_cap:
            cache.clear()
        pad_int = self._pads.pad_int(address, counter, n)
        cache[address, counter, n] = pad_int
        return int.from_bytes(plaintext, "little") ^ pad_int

    def encrypt(self, plaintext: bytes, address: int, counter: int) -> bytes:
        """:meth:`seal` as bytes."""
        return self.seal(plaintext, address, counter).to_bytes(len(plaintext), "little")

    def decrypt(self, ciphertext: bytes, address: int, counter: int) -> bytes:
        """Decrypt one line; identical XOR with the same pad."""
        n = len(ciphertext)
        return (
            int.from_bytes(ciphertext, "little") ^ self.pad_int_for(address, counter, n)
        ).to_bytes(n, "little")

    def pad_int_for(self, address: int, counter: int, nbytes: int) -> int:
        """The one-time pad as a little-endian integer (the XOR operand).

        For callers that compare or decrypt lines in the integer domain —
        e.g. the dedup verify read, which only needs ``decrypt(stored) ==
        candidate`` — this skips the two bytes<->int conversions of a full
        :meth:`decrypt`.  Shares the bounded pad cache.
        """
        token = (address, counter, nbytes)
        cache = self._pad_cache
        pad_int = cache.get(token)
        if pad_int is None:
            if len(cache) >= self._pad_cache_cap:
                cache.clear()
            pad_int = self._pads.pad_int(address, counter, nbytes)
            cache[token] = pad_int
        return pad_int
