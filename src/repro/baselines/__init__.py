"""Every scheme DeWrite is compared against in the paper's evaluation.

- :class:`TraditionalSecureNvmController` — counter-mode encryption, no
  deduplication; the denominator of Figs. 12/14/16/17/18/19.
- :class:`SilentShredderController` — zero-line write elimination (Awad et
  al.), the line-level competitor in Figs. 2/13.
- :func:`traditional_dedup_controller` — SHA-1/MD5 fingerprint in-line
  dedup with trusted fingerprints and serial encryption (Table I).
- the two strawman dedup⊕encryption integrations of Fig. 3 (Figs. 15/20)
  are built via ``repro.core.registry.build_controller("direct")`` /
  ``build_controller("parallel")`` — there is no separate factory module.
- :mod:`repro.baselines.bit_reduction` — DCW / FNW / DEUCE bit-level
  write-reduction models and the combined analyzer behind Fig. 13.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: Public name -> defining submodule.  Exports load on first use (PEP 562),
#: so building one controller imports only the module it lives in.
_EXPORTS = {
    "TraditionalSecureNvmController": "secure_nvm",
    "SilentShredderController": "silent_shredder",
    "INvmmController": "i_nvmm",
    "OutOfLinePageDedupController": "out_of_line",
    "traditional_dedup_controller": "traditional_dedup",
    "BitFlipAnalyzer": "bit_reduction",
    "BitFlipReport": "bit_reduction",
    "FnwLineState": "bit_reduction",
    "dcw_flips": "bit_reduction",
    "deuce_flips": "bit_reduction",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
