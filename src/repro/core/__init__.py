"""DeWrite core: the paper's contribution.

The public entry point is :class:`DeWriteController` — a drop-in secure-NVM
memory controller that deduplicates line writes in-line (§III-B), overlaps
deduplication with counter-mode encryption under a history-window predictor
(§III-A), and colocates the encryption counters inside the dedup metadata
(§III-C).  The supporting pieces (predictor, tables, caches, metadata timing) are
exported for experiments and ablations.
"""

from repro._lazy import lazy_exports
from repro.core.config import DeWriteConfig, MetadataCacheConfig
from repro.core.dedup_engine import MetadataSystem
from repro.core.dewrite import DeWriteController, IntegrationMode
from repro.core.interface import MemoryController, ReadOutcome, WriteOutcome
from repro.core.metadata_cache import MetadataCache
from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.predictor import HistoryWindowPredictor
from repro.core.stats import DeWriteStats, LatencyAccumulator
from repro.core.tables import DedupIndex, DedupIndexError, MetadataLayout

#: Optional exports, loaded on first use (PEP 562): only the storage-overhead
#: figure computes the §III-C colocation budgets.
_EXPORTS = dict.fromkeys(
    (
        "StorageOverhead",
        "ColocationReport",
        "dewrite_overhead",
        "deuce_overhead",
        "counter_mode_overhead",
        "audit_colocation",
    ),
    "colocation",
)

__all__ = [
    "DeWriteController",
    "IntegrationMode",
    "DeWriteConfig",
    "MetadataCacheConfig",
    "MemoryController",
    "WriteOutcome",
    "ReadOutcome",
    "HistoryWindowPredictor",
    "MetadataPersistenceConfig",
    "MetadataPersistencePolicy",
    "MetadataSystem",
    "MetadataCache",
    "DedupIndex",
    "DedupIndexError",
    "MetadataLayout",
    "DeWriteStats",
    "LatencyAccumulator",
    "StorageOverhead",
    "ColocationReport",
    "dewrite_overhead",
    "deuce_overhead",
    "counter_mode_overhead",
    "audit_colocation",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
