"""SWAR batch kernels for the Table I hash circuits.

The scalar :func:`repro.hashes.sha1_ref.sha1` / :func:`repro.hashes.md5_ref.md5`
implementations interpret ~1800 small-int operations per 64-byte block *per
message*.  When the dedup pipeline fingerprints a whole write burst, the
same rounds can be evaluated for every message in the burst simultaneously:
each 32-bit working variable is packed into a 64-bit lane of one big Python
integer (lane ``j`` holds message ``j``'s value), and one big-int ``+``,
``&``, ``^`` or shift then advances all lanes together in C.

Lane arithmetic is exact because a 64-bit lane gives 32 bits of headroom:
the widest sum in either compression function adds five 32-bit terms
(< 2^35), so carries never cross a lane boundary before the ``& _M32``
mask re-canonicalises the lanes.  Rotates use the usual SWAR identity
``rotl(x, s) = ((x << s) | (x >> (32 - s))) & _M32`` — the bits a right
shift pushes below a lane land in the *unused upper half* of the lane
below and are masked off.

Both kernels are bit-identical to mapping the scalar function over the
batch — a tested invariant — so they are drop-in replacements anywhere a
burst of lines needs fingerprinting.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.hashes.md5_ref import _INIT_STATE as _MD5_H0
from repro.hashes.md5_ref import _SHIFTS as _MD5_SHIFTS
from repro.hashes.md5_ref import _SINES as _MD5_SINES
from repro.hashes.md5_ref import _pad as _md5_pad
from repro.hashes.sha1_ref import _H0 as _SHA1_H0
from repro.hashes.sha1_ref import _pad as _sha1_pad

_LANE = 64  # bits per lane; 32-bit values + 32 bits of carry headroom

# Per-lane-count packed constants, cached: the all-lanes 32-bit mask and
# the broadcast unit (multiplying a 32-bit constant by _unit(k) replicates
# it into every lane).
_mask_cache: dict[int, int] = {}
_unit_cache: dict[int, int] = {}

# MD5's message-word index g, precomputed per round (RFC 1321 §3.4).
_MD5_G = tuple(
    i if i < 16 else (5 * i + 1) % 16 if i < 32 else (3 * i + 5) % 16 if i < 48 else (7 * i) % 16
    for i in range(64)
)


def _mask32(k: int) -> int:
    mask = _mask_cache.get(k)
    if mask is None:
        mask = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * k, "little")
        _mask_cache[k] = mask
    return mask


def _unit(k: int) -> int:
    unit = _unit_cache.get(k)
    if unit is None:
        unit = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * k, "little")
        _unit_cache[k] = unit
    return unit


def _pack_words(values: tuple[int, ...], k: int) -> int:
    """Pack ``k`` 32-bit values into the low half of ``k`` 64-bit lanes."""
    return int.from_bytes(struct.pack(f"<{k}Q", *values), "little")


def _unpack_lanes(x: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`_pack_words` for a lane-clean packed integer."""
    return struct.unpack(f"<{k}Q", x.to_bytes(8 * k, "little"))


def _block_words(padded: list[bytes], offset: int, fmt: str, k: int) -> list[int]:
    """The 16 packed message words of one 64-byte block across ``k`` lanes.

    ``fmt`` is ``">16I"`` for SHA-1 (big-endian words) or ``"<16I"`` for
    MD5 (little-endian words).
    """
    per_message = [struct.unpack(fmt, msg[offset : offset + 64]) for msg in padded]
    return [_pack_words(tuple(words[i] for words in per_message), k) for i in range(16)]


def _sha1_lanes(padded: list[bytes], k: int) -> list[bytes]:
    """SHA-1 over ``k`` equal-length padded messages, one lane each."""
    m32 = _mask32(k)
    unit = _unit(k)
    k1, k2, k3, k4 = (c * unit for c in (0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6))
    a, b, c, d, e = (h * unit for h in _SHA1_H0)

    for offset in range(0, len(padded[0]), 64):
        w = _block_words(padded, offset, ">16I", k)
        append = w.append
        for t in range(16, 80):
            x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
            append(((x << 1) | (x >> 31)) & m32)

        a0, b0, c0, d0, e0 = a, b, c, d, e
        for t in range(80):
            if t < 20:
                f = (b & c) | ((b ^ m32) & d)
                kv = k1
            elif t < 40:
                f = b ^ c ^ d
                kv = k2
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                kv = k3
            else:
                f = b ^ c ^ d
                kv = k4
            temp = ((((a << 5) | (a >> 27)) & m32) + f + e + kv + w[t]) & m32
            a, b, c, d, e = temp, a, ((b << 30) | (b >> 2)) & m32, c, d
        a = (a0 + a) & m32
        b = (b0 + b) & m32
        c = (c0 + c) & m32
        d = (d0 + d) & m32
        e = (e0 + e) & m32

    lanes = zip(*(_unpack_lanes(x, k) for x in (a, b, c, d, e)))
    return [struct.pack(">5I", *digest) for digest in lanes]


def _md5_lanes(padded: list[bytes], k: int) -> list[bytes]:
    """MD5 over ``k`` equal-length padded messages, one lane each."""
    m32 = _mask32(k)
    unit = _unit(k)
    sines = [t * unit for t in _MD5_SINES]
    a, b, c, d = (h * unit for h in _MD5_H0)
    shifts = _MD5_SHIFTS
    g_index = _MD5_G

    for offset in range(0, len(padded[0]), 64):
        m = _block_words(padded, offset, "<16I", k)
        a0, b0, c0, d0 = a, b, c, d
        for i in range(64):
            if i < 16:
                f = (b & c) | ((b ^ m32) & d)
            elif i < 32:
                f = (d & b) | ((d ^ m32) & c)
            elif i < 48:
                f = b ^ c ^ d
            else:
                f = c ^ (b | (d ^ m32))
            f = (f + a + sines[i] + m[g_index[i]]) & m32
            s = shifts[i]
            a, d, c = d, c, b
            b = (b + (((f << s) | (f >> (32 - s))) & m32)) & m32
        a = (a0 + a) & m32
        b = (b0 + b) & m32
        c = (c0 + c) & m32
        d = (d0 + d) & m32

    lanes = zip(*(_unpack_lanes(x, k) for x in (a, b, c, d)))
    return [struct.pack("<4I", *digest) for digest in lanes]


def _batched(
    messages: Sequence[bytes],
    pad: "callable",
    kernel: "callable",
) -> list[bytes]:
    """Group messages by padded length, run the kernel per group."""
    if not messages:
        return []
    padded = [pad(message) for message in messages]
    groups: dict[int, list[int]] = {}
    for index, p in enumerate(padded):
        groups.setdefault(len(p), []).append(index)
    digests: list[bytes] = [b""] * len(messages)
    for indices in groups.values():
        group = [padded[i] for i in indices]
        for index, digest in zip(indices, kernel(group, len(group))):
            digests[index] = digest
    return digests


def sha1_many(messages: Sequence[bytes]) -> list[bytes]:
    """SHA-1 digests of a whole burst, bit-identical to ``[sha1(m) ...]``."""
    return _batched(messages, _sha1_pad, _sha1_lanes)


def md5_many(messages: Sequence[bytes]) -> list[bytes]:
    """MD5 digests of a whole burst, bit-identical to ``[md5(m) ...]``."""
    return _batched(messages, _md5_pad, _md5_lanes)
