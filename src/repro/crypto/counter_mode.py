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

A pad is a pure function of (key, address, counter, length), so every pad
the engine hands out comes from a bounded memo keyed by the one int
``counter << 64 | address``: one memo per line length, shared by every
engine on the default SHAKE generator with the same key, so the
controllers of one process (a figure's baseline and DeWrite, a pool
worker's jobs) make each pad once.  An engine given its own generator
keeps private memos.  Addresses are line indices below 2**64.
"""

from __future__ import annotations

from repro.crypto.otp import PadGenerator, ShakePadGenerator


#: Entries one pad memo holds before it is cleared, so a multi-million-line
#: run cannot hold every pad ever generated.
_PAD_MEMO_CAP = 8192

#: (key, line length) -> pad memo, for every engine on the default generator.
_SHAKE_PAD_MEMOS: dict[tuple[bytes, int], dict[int, int]] = {}


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
        if pad_generator is None:
            self._pads: PadGenerator = ShakePadGenerator(key)
            self._shared_key: bytes | None = bytes(key)
        else:
            self._pads = pad_generator
            self._shared_key = None
        self._track = track_otp_reuse
        self._used: set[tuple[int, int]] = set()
        self._memos: dict[int, dict[int, int]] = {}  # line length -> pad memo

    def _memo(self, nbytes: int) -> dict[int, int]:
        """The pad memo for ``nbytes``-byte lines: ``counter << 64 | address``
        -> the pad as a little-endian integer.

        Shared by every default-generator engine with this engine's key;
        cleared in place, never replaced, so a caller may hold it (or its
        ``get``) across calls.  Read-only outside this class: a miss goes
        through :meth:`pad_int_for`, which keeps the bound.
        """
        memo = self._memos.get(nbytes)
        if memo is None:
            if self._shared_key is None:
                memo = {}
            else:
                memo = _SHAKE_PAD_MEMOS.setdefault((self._shared_key, nbytes), {})
            self._memos[nbytes] = memo
        return memo

    def seal(self, plaintext: bytes, address: int, counter: int) -> int:
        """Encrypt one line stored at ``address`` under its ``counter``,
        returning the ciphertext as its little-endian integer.

        Records the (address, counter) pair when OTP reuse is tracked, then
        is :meth:`pad_int_for` plus the XOR: the pad comes from the memo,
        and only a pair no engine sharing it has sealed or decrypted since
        the last clear generates one.
        """
        if self._track:
            token = (address, counter)
            if token in self._used:
                raise OtpReuseError(
                    f"OTP reuse: address {address:#x} counter {counter} already used"
                )
            self._used.add(token)
        n = len(plaintext)
        memo = self._memos.get(n)
        if memo is None:
            memo = self._memo(n)
        token = counter << 64 | address
        pad_int = memo.get(token)
        if pad_int is None:
            if len(memo) >= _PAD_MEMO_CAP:
                memo.clear()
            pad_int = memo[token] = self._pads.pad_int(address, counter, n)
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
        :meth:`decrypt`.  Looks the pad up in the memo and generates
        it only on a miss.
        """
        memo = self._memos.get(nbytes)
        if memo is None:
            memo = self._memo(nbytes)
        token = counter << 64 | address
        pad_int = memo.get(token)
        if pad_int is None:
            if len(memo) >= _PAD_MEMO_CAP:
                memo.clear()
            pad_int = memo[token] = self._pads.pad_int(address, counter, nbytes)
        return pad_int
