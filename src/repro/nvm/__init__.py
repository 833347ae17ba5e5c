"""NVMain-style non-volatile main-memory simulator.

This is the substrate the paper evaluates on (gem5 + NVMain, §IV-A): a
banked PCM-like main memory with

- asymmetric read/write timing (75 ns reads vs 300 ns writes, §III-B1) —
  the asymmetry DeWrite's hash+read+compare dedup check exploits;
- per-bank busy-until scheduling, so an in-flight write blocks later
  requests to the same bank (§I) — the queueing effect that lets eliminated
  writes speed up *other* reads and writes;
- wear accounting (per-line write counts, per-write bit flips) for the
  endurance results (Figs. 12/13);
- an energy model (array pJ/bit, plus the AES/dedup-logic constants used by
  Figs. 19/20).

Public surface: :class:`NvmConfig` bundles the Table II-style parameters,
:class:`NvmMainMemory` is the device model.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.nvm.config import NvmConfig, NvmEnergyConfig, NvmOrganization, NvmTimingConfig
from repro.nvm.bank import Bank
from repro.nvm.memory import AccessResult, NvmMainMemory
from repro.nvm.wear import WearTracker
from repro.nvm.energy import EnergyAccount

#: Optional export -> defining submodule, loaded on first use (PEP 562): no
#: paper figure runs Start-Gap wear levelling.
_EXPORTS = {
    "StartGapConfig": "wearlevel",
    "StartGapMapper": "wearlevel",
    "WearLevelledNvm": "wearlevel",
}

__all__ = [
    "NvmConfig",
    "NvmTimingConfig",
    "NvmEnergyConfig",
    "NvmOrganization",
    "Bank",
    "NvmMainMemory",
    "AccessResult",
    "WearTracker",
    "EnergyAccount",
    "StartGapConfig",
    "StartGapMapper",
    "WearLevelledNvm",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
