"""One-time-pad generators for counter-mode encryption.

Counter-mode security requires that each (key, line address, counter) triple
yields a pad that is never reused and looks independent of every other pad
(paper §II-B, Fig. 1).  Three interchangeable generators implement that
contract:

- :class:`AesPadGenerator` — the reference model: AES-128 in counter mode,
  one block per 16 bytes of line, seed = address || counter || block index.
- :class:`SplitmixPadGenerator` — a keyed PRF built on splitmix64 with a
  SWAR big-integer kernel, the pure-Python fast path.
- :class:`ShakePadGenerator` — a keyed SHAKE-128 XOF (``hashlib``), the
  default for multi-million-line simulations: the permutation runs in C,
  so a 256 B pad costs ~4x less than the interpreted splitmix kernel.

All preserve the two properties the simulator depends on: pad uniqueness
per (address, counter) and full diffusion (a counter bump rerandomises the
whole ciphertext, which is exactly what defeats DCW/FNW in Fig. 13).  All
produce pads of any requested length and are deterministic in the key, so
ciphertexts written by one engine instance decrypt in another with the
same key — a tested invariant.
"""

from __future__ import annotations

import struct
from hashlib import shake_128
from typing import Protocol

_MASK64 = 0xFFFFFFFFFFFFFFFF


class PadGenerator(Protocol):
    """A keyed function (address, counter) -> pad bytes."""

    def pad(self, address: int, counter: int, length: int) -> bytes:
        """Return ``length`` pad bytes for the line at ``address`` on its
        ``counter``-th encryption."""
        ...

    def pad_int(self, address: int, counter: int, length: int) -> int:
        """:meth:`pad` as its little-endian integer (the XOR operand)."""
        ...


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 sequence; returns (new_state, output)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    return state, z


# --- SWAR (SIMD-within-a-register) splitmix64 over big-integer lanes ------
#
# A 256 B pad needs 32 consecutive splitmix64 outputs.  The states form an
# arithmetic progression (state_j = seed + (j+1)*gamma mod 2^64), so they
# can be packed into 128-bit lanes of a Python integer and mixed together:
# multiplying the packed integer by a 64-bit constant multiplies every lane
# (each product < 2^128 stays inside its lane), and the xor-shift steps stay
# lane-local when the shifted value is masked back to the low 64 bits of
# each lane before use.  This turns ~32 interpreted mix steps into a few
# big-int operations, each executed in C.
#
# The even-indexed words go in one integer (lane i holds word 2i, state
# increment (2i+1)*gamma) and the odd-indexed ones in another (lane i holds
# word 2i+1, increment (2i+2)*gamma).  Each word then sits at bit 128i of
# its integer, so ``even | odd << 64`` places word j at bit 64j: the pad's
# little-endian integer, with no byte round trip.  The output is
# bit-identical to the scalar loop — a tested invariant.
#
# Per pad length we precompute:
#   U    — 1 in every lane           (seed * U broadcasts the seed)
#   E, O — the even and odd lanes' state increments, mod 2^64
#   LM   — the low-64-bit mask of every lane
#   OM   — the mask of the pad's 8 * length bits
_swar_constants_cache: dict[int, tuple[int, int, int, int, int]] = {}


def _swar_constants(length: int) -> tuple[int, int, int, int, int]:
    constants = _swar_constants_cache.get(length)
    if constants is None:
        unit = even = odd = lane_mask = 0
        for i in range((length + 15) // 16):
            shift = 128 * i
            unit |= 1 << shift
            even |= (((2 * i + 1) * _GAMMA) & _MASK64) << shift
            odd |= (((2 * i + 2) * _GAMMA) & _MASK64) << shift
            lane_mask |= _MASK64 << shift
        constants = (unit, even, odd, lane_mask, (1 << 8 * length) - 1)
        _swar_constants_cache[length] = constants
    return constants


def swar_finalise(x: int, lane_mask: int) -> int:
    """The splitmix64 finaliser applied to every 128-bit lane of ``x`` at once.

    Each lane must hold a value below 2^64 and ``lane_mask`` must cover the
    low 64 bits of every lane; lane ``j`` of the result is the finaliser
    (xor-shift 30, multiply, xor-shift 27, multiply, xor-shift 31, all mod
    2^64) of lane ``j`` of ``x``.  The one SWAR mix the pads and the
    tenant-traffic draw columns (:func:`repro.workloads.tenants.mix64_columns`)
    share.
    """
    x = ((x ^ ((x >> 30) & lane_mask)) * _MIX1) & lane_mask
    x = ((x ^ ((x >> 27) & lane_mask)) * _MIX2) & lane_mask
    return x ^ ((x >> 31) & lane_mask)


class SplitmixPadGenerator:
    """Fast keyed PRF pad: splitmix64 seeded by (key, address, counter).

    The seed folds the 128-bit key into two 64-bit lanes and mixes in the
    address and counter through one splitmix step each, so nearby addresses
    and consecutive counters land in unrelated stream positions.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"key must be 16 bytes, got {len(key)}")
        self._k0, self._k1 = struct.unpack("<QQ", key)

    def pad(self, address: int, counter: int, length: int) -> bytes:
        """Generate ``length`` pseudo-random pad bytes."""
        return self.pad_int(address, counter, length).to_bytes(length, "little")

    def pad_int(self, address: int, counter: int, length: int) -> int:
        """:meth:`pad` as its little-endian integer, mixed in two SWAR halves."""
        # Two mixing rounds bind key, address and counter into the seed.
        _, a = _splitmix64((self._k0 ^ address) & _MASK64)
        _, b = _splitmix64((self._k1 ^ counter) & _MASK64)
        unit, even, odd, lane_mask, out_mask = _swar_constants(length)
        seeds = ((a ^ (b * _GAMMA)) & _MASK64) * unit
        words = swar_finalise((seeds + even) & lane_mask, lane_mask)
        words |= swar_finalise((seeds + odd) & lane_mask, lane_mask) << 64
        return words & out_mask


class ShakePadGenerator:
    """Keyed SHAKE-128 pad: one XOF call per (address, counter) pair.

    The seed is ``key || address || counter`` (fixed-width little-endian),
    so distinct triples never collide as hash inputs and a one-bit change
    anywhere rerandomises the whole output stream.  Being an XOF, prefixes
    are stable: ``pad(a, c, 16)`` is the first 16 bytes of ``pad(a, c, n)``
    for any larger ``n`` — the same property the splitmix stream has.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"key must be 16 bytes, got {len(key)}")
        self._key = key

    def pad(self, address: int, counter: int, length: int) -> bytes:
        """Generate ``length`` pseudo-random pad bytes."""
        seed = self._key + struct.pack("<QQ", address & _MASK64, counter & _MASK64)
        return shake_128(seed).digest(length)

    def pad_int(self, address: int, counter: int, length: int) -> int:
        """:meth:`pad` as its little-endian integer (one XOF call, no :meth:`pad`
        call: this is every CME seal's pad)."""
        seed = self._key + struct.pack("<QQ", address & _MASK64, counter & _MASK64)
        return int.from_bytes(shake_128(seed).digest(length), "little")


class AesPadGenerator:
    """Reference pad generator: AES-128 over (address, counter, block index).

    This is the literal Fig. 1 construction — the pad for each 16-byte block
    of a line is the AES encryption of a unique nonce, so pads are provably
    never reused while counters increase monotonically per line.
    """

    def __init__(self, key: bytes) -> None:
        # Imported here: only this reference generator runs the cipher.
        from repro.crypto.aes import AES128

        self._aes = AES128(key)

    def pad(self, address: int, counter: int, length: int) -> bytes:
        """Generate ``length`` pad bytes, one AES block per 16 bytes."""
        blocks = []
        for block_index in range((length + 15) // 16):
            nonce = struct.pack("<QQ", address & _MASK64, ((counter << 8) | block_index) & _MASK64)
            blocks.append(self._aes.encrypt_block(nonce))
        return b"".join(blocks)[:length]

    def pad_int(self, address: int, counter: int, length: int) -> int:
        """:meth:`pad` as its little-endian integer."""
        return int.from_bytes(self.pad(address, counter, length), "little")
