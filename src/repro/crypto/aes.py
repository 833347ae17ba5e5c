"""From-scratch AES-128 block cipher (FIPS-197).

This is the functional model of the hardware AES engine every secure-NVM
design in the paper assumes (96 ns per 256 B line, 5.9 nJ per 128-bit
block — paper §IV-A).  It is used two ways:

- as the pad generator for counter-mode encryption when full cryptographic
  fidelity is wanted (:class:`repro.crypto.otp.AesPadGenerator`);
- as the direct block cipher for metadata lines
  (:class:`repro.crypto.direct.DirectEncryptionEngine`).

The implementation is the textbook byte-oriented one: S-box built from the
GF(2^8) inverse + affine map, key expansion, SubBytes / ShiftRows /
MixColumns / AddRoundKey, plus the inverse cipher.  Test vectors from
FIPS-197 Appendix B/C are asserted in the test suite.
"""

from __future__ import annotations


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication (Russian-peasant with xtime)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Derive the AES S-box from first principles (GF inverse + affine)."""
    # Log/antilog tables over the generator 3 give every inverse in O(256):
    # a^-1 = 3^(255 - log a).
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for power in range(255):
        exp[power] = x
        log[x] = power
        x ^= _xtime(x)  # x * 3 = x * 2 + x
    sbox = [0] * 256
    for value in range(256):
        x = exp[-log[value] % 255] if value else 0
        # Affine transformation: bit_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i,
        # i.e. x xor its left rotations by 1..4, xor 0x63.
        rotations = x
        for shift in range(1, 5):
            rotations ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        sbox[value] = rotations ^ 0x63
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return tuple(sbox), tuple(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


class AES128:
    """AES with a 128-bit key: 10 rounds over a 16-byte state.

    The state is kept as a flat 16-byte list in column-major order, matching
    FIPS-197's ``in[4*c + r]`` layout, so ``encrypt_block``/``decrypt_block``
    operate directly on the wire format.
    """

    BLOCK_SIZE = 16
    ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> list[bytes]:
        """FIPS-197 key schedule: 44 words -> 11 round keys of 16 bytes."""
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(11):
            flat = []
            for w in words[4 * r : 4 * r + 4]:
                flat.extend(w)
            round_keys.append(bytes(flat))
        return round_keys

    # -- forward cipher ----------------------------------------------------

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # Row r (elements state[r], state[r+4], ...) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
            state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
            state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
            state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)

    @staticmethod
    def _add_round_key(state: list[int], round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(plaintext)}")
        state = list(plaintext)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, 10):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[10])
        return bytes(state)

    # -- inverse cipher ----------------------------------------------------

    @staticmethod
    def _inv_sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = (
                _gmul(col[0], 14) ^ _gmul(col[1], 11) ^ _gmul(col[2], 13) ^ _gmul(col[3], 9)
            )
            state[4 * c + 1] = (
                _gmul(col[0], 9) ^ _gmul(col[1], 14) ^ _gmul(col[2], 11) ^ _gmul(col[3], 13)
            )
            state[4 * c + 2] = (
                _gmul(col[0], 13) ^ _gmul(col[1], 9) ^ _gmul(col[2], 14) ^ _gmul(col[3], 11)
            )
            state[4 * c + 3] = (
                _gmul(col[0], 11) ^ _gmul(col[1], 13) ^ _gmul(col[2], 9) ^ _gmul(col[3], 14)
            )

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(ciphertext)}")
        state = list(ciphertext)
        self._add_round_key(state, self._round_keys[10])
        for rnd in range(9, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
