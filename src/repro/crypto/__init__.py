"""Memory-encryption substrate for DeWrite.

Secure NVMM encrypts every line on the CPU side to defeat stolen-DIMM and
bus-snooping attacks (paper §II-A/B).  DeWrite builds on *counter-mode
encryption* (CME): a one-time pad is derived from (secret key, line address,
per-line counter) through an AES engine and XORed with the data, so
decryption overlaps the memory read.  Metadata lines use *direct* (block)
encryption instead, avoiding counters for the counter store itself
(paper §III-B1).

Modules:

- :mod:`repro.crypto.aes` — from-scratch AES-128 (FIPS-197), the reference
  pad generator and the direct block cipher.
- :mod:`repro.crypto.otp` — fast splitmix64-based keyed PRF pads for large
  simulations (same security-relevant property for the simulator: each
  (key, address, counter) yields an independent pad → full diffusion).
- :mod:`repro.crypto.counter_mode` — the CME engine with per-line counters
  and OTP-uniqueness bookkeeping.
- :mod:`repro.crypto.direct` — direct line encryption used for metadata and
  as the §II-B direct-encryption baseline.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.crypto.counter_mode import CounterModeEngine, OtpReuseError
from repro.crypto.otp import (
    AesPadGenerator,
    PadGenerator,
    ShakePadGenerator,
    SplitmixPadGenerator,
)

#: Optional export -> defining submodule, loaded on first use (PEP 562): a
#: simulation runs the CME engine and the splitmix pads, never AES itself.
_EXPORTS = {
    "AES128": "aes",
    "DirectEncryptionEngine": "direct",
}

__all__ = [
    "AES128",
    "CounterModeEngine",
    "OtpReuseError",
    "DirectEncryptionEngine",
    "PadGenerator",
    "SplitmixPadGenerator",
    "ShakePadGenerator",
    "AesPadGenerator",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
