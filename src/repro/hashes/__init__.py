"""Hash-function substrate for DeWrite.

DeWrite's dedup logic fingerprints 256 B cache lines with a *light-weight*
hash (CRC-32, 15 ns in hardware) and falls back to a byte-by-byte compare to
confirm duplication, instead of trusting a *cryptographic* fingerprint
(SHA-1 / MD5, >300 ns) the way traditional storage deduplication does
(paper §III-B, Table I).

This subpackage provides from-scratch, test-validated implementations of all
three functions plus the hardware latency/size model of Table I:

- :func:`crc32` — table-driven reflected CRC-32 (IEEE 802.3 polynomial),
  bit-identical to ``binascii.crc32``.
- :func:`sha1` / :func:`md5` — pure-Python digests, bit-identical to
  ``hashlib``.
- :func:`sha1_many` / :func:`md5_many` — SWAR batch kernels evaluating the
  same circuits over a whole write burst at once (one 64-bit big-integer
  lane per message), bit-identical to mapping the scalar functions.
- :class:`HashModel` / :data:`CRC32_MODEL` etc. — Table Ia's latency and
  digest-size constants, consumed by the timing simulator.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.hashes.crc32 import crc32, crc32_fast, line_fingerprint
from repro.hashes.latency import (
    CRC32_MODEL,
    MD5_MODEL,
    SHA1_MODEL,
    HashModel,
    model_for,
)

#: Optional export -> defining submodule, loaded on first use (PEP 562): a
#: simulation fingerprints with CRC-32 and charges Table I latencies, but
#: never computes a cryptographic digest.
_EXPORTS = {
    "md5": "md5_ref",
    "md5_hexdigest": "md5_ref",
    "sha1": "sha1_ref",
    "sha1_hexdigest": "sha1_ref",
    "md5_many": "vector",
    "sha1_many": "vector",
}

__all__ = [
    "crc32",
    "crc32_fast",
    "line_fingerprint",
    "sha1",
    "sha1_hexdigest",
    "sha1_many",
    "md5",
    "md5_hexdigest",
    "md5_many",
    "HashModel",
    "CRC32_MODEL",
    "SHA1_MODEL",
    "MD5_MODEL",
    "model_for",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
