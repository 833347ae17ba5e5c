"""Workload substrate: synthetic equivalents of SPEC CPU2006 + PARSEC 2.1.

The paper's evaluation never depends on what its 20 applications compute —
only on the statistical structure of the post-LLC memory access stream each
one generates: how many line writes are duplicates (Fig. 2), how strongly
duplication states cluster in time (Fig. 4), how many lines are zero, the
read/write mix, the burstiness that creates bank pressure, and how many
words change when a line is rewritten (which drives the DEUCE/DCW/FNW
comparison of Fig. 13).  This package encodes those statistics per
application (:mod:`profiles`), generates traces that provably exhibit them
(:mod:`generator` — the test suite checks each trace against its profile),
and provides the ground-truth duplication oracle (:mod:`oracle`) used by
Fig. 2 and the bit-flip analyzer.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.oracle import DedupOracle, is_zero_line
from repro.workloads.profiles import (
    ALL_PROFILES,
    PARSEC_PROFILES,
    SPEC_PROFILES,
    ApplicationProfile,
    profile_by_name,
)
from repro.workloads.trace import MemoryAccess, Trace
from repro.workloads.worstcase import worst_case_trace

#: Optional export -> defining submodule, loaded on first use (PEP 562):
#: simulations synthesize their traces and never touch trace files.
_EXPORTS = {
    "load_trace": "io",
    "save_trace": "io",
}

__all__ = [
    "ApplicationProfile",
    "ALL_PROFILES",
    "SPEC_PROFILES",
    "PARSEC_PROFILES",
    "profile_by_name",
    "MemoryAccess",
    "Trace",
    "TraceGenerator",
    "generate_trace",
    "DedupOracle",
    "is_zero_line",
    "worst_case_trace",
    "save_trace",
    "load_trace",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
