"""The metadata timing layer of the dedup logic.

:class:`MetadataSystem` glues the four :class:`~repro.core.metadata_cache.
MetadataCache` instances to the NVM device: a cache miss becomes a timed
metadata-line read (plus the direct-encryption decrypt latency when it
blocks the requester), and a dirty eviction becomes a posted metadata-line
write.  Metadata traffic therefore contends for banks exactly like data
traffic — which is how the paper's 2.6 % metadata-write overhead and
>98 % hit rates become measurable.

Duplication detection itself (Fig. 5: CRC-32, hash-cache probe, the PNA
skip of §III-B2, verify read + compare of §III-B1) is the write body of
:meth:`repro.core.dewrite.DeWriteController._request_bodies`; the flags
below name its three outcomes.  That body also charges a write's table
touches itself, through the caches' resident-block hit arm and insert arm;
:meth:`MetadataSystem.access` is its path for a blocking lookup that
misses, and :meth:`MetadataSystem.replay` the path for a write whose
touches miss (and the reference the tests replay the body against).
"""

from __future__ import annotations

import math

from repro.core.config import DeWriteConfig
from repro.core.metadata_cache import MetadataCache
from repro.core.tables import INSERT, READ, MetadataLayout, TableName
from repro.crypto.otp import SplitmixPadGenerator
from repro.nvm.memory import NvmMainMemory
from repro.obs.timeline import NULL_TIMELINE, TimelineLike
from repro.obs.trace import NULL_TRACER, TracerLike

# Detection outcomes of one write, as bits (the ``write.dedup`` span carries
# ``pna_skipped``; the hash cache's hit and miss counts tell the other two).
PNA_SKIPPED = 1  # predicted non-duplicate, hash-cache miss: no NVM query
HASH_CACHE_HIT = 2  # the fingerprint's hash entry was cached on chip
QUERIED_NVM = 4  # a hash-cache miss paid the blocking in-NVM table query


class MetadataSystem:
    """Timing bridge between the metadata caches and the NVM device."""

    def __init__(
        self,
        config: DeWriteConfig,
        layout: MetadataLayout,
        nvm: NvmMainMemory,
    ) -> None:
        mc = config.metadata_cache
        self.caches: dict[TableName, MetadataCache] = {
            "hash_table": MetadataCache("hash_table", mc.hash_cache_entries, 1),
            "address_map": MetadataCache(
                "address_map", mc.address_map_cache_blocks, mc.prefetch_entries
            ),
            "inverted_hash": MetadataCache(
                "inverted_hash", mc.inverted_hash_cache_blocks, mc.prefetch_entries
            ),
            "fsm": MetadataCache("fsm", mc.fsm_cache_blocks, mc.prefetch_entries),
        }
        self.layout = layout
        self.nvm = nvm
        self.decrypt_ns = config.metadata_decrypt_ns
        self.persistence = policy = config.persistence
        # The persistence config is frozen, so its arm is resolved once
        # here rather than through enum properties on every dirtying touch.
        self._write_through = policy.is_write_through
        # The periodic full flush's interval; never (inf) under other policies.
        self._flush_interval_ns = policy.writeback_interval_ns if policy.is_periodic else math.inf
        self._persistence_active = self._write_through or policy.is_periodic
        self._last_periodic_flush_ns = 0.0
        self.metadata_reads = 0
        self.metadata_writebacks = 0
        # Metadata lines are direct-encrypted; each writeback rewrites a full
        # diffused line.  The payload generator models that (≈50 % flips).
        self._payloads = SplitmixPadGenerator(b"\xa5" * 16)
        self._payload_version = 0
        self.tracer: TracerLike = NULL_TRACER
        self.timeline: TimelineLike = NULL_TIMELINE
        # (base line, table lines) per table, precomputed: the layout's
        # properties rebuild their dicts on every call, which shows up on
        # the miss/writeback paths.  Same arithmetic as ``nvm_line_for``.
        table_lines = layout.table_lines
        self._line_map: dict[TableName, tuple[int, int]] = {
            name: (layout.table_base(name), table_lines[name]) for name in self.caches
        }
        self._line_size = nvm.config.organization.line_size_bytes

    def access(
        self,
        table: TableName,
        entry_index: int,
        write: bool,
        now_ns: float,
        blocking: bool,
        fetch_on_miss: bool = True,
    ) -> float:
        """Touch one table entry through its cache.

        Returns the latency added to the requester's critical path: zero on
        a hit or when the access is posted (``blocking=False``); the NVM
        read plus metadata-decrypt latency on a blocking miss.  Dirty
        evictions always schedule a posted metadata write.  Creating a
        brand-new entry (``fetch_on_miss=False``) allocates without reading
        NVM — there is nothing to fetch.
        """
        hit, block, evicted = self.caches[table].access(entry_index, write, not fetch_on_miss)
        if fetch_on_miss and self.timeline.enabled:
            # The timeline counts what the caches count (Fig. 21's query
            # hit rate): an insert is not a lookup.
            self.timeline.record_metadata(now_ns, hit=hit)
        extra = 0.0
        if not hit and fetch_on_miss:
            base, table_lines = self._line_map[table]
            fetched = self.nvm.read_complete_ns(base + block % table_lines, now_ns)
            self.metadata_reads += 1
            if blocking:
                extra = (fetched - now_ns) + self.decrypt_ns
            if self.tracer.enabled:
                self.tracer.event(
                    "metadata.miss", sim_ns=now_ns, table=table, blocking=blocking
                )
        if evicted is not None:
            self._writeback(table, evicted, now_ns)
        if write and self._persistence_active:
            self._enforce_persistence(table, entry_index, now_ns)
        return extra

    def _enforce_persistence(self, table: TableName, entry_index: int, now_ns: float) -> None:
        """Apply the §V crash-consistency policy to a just-dirtied entry."""
        if self._write_through:
            cache = self.caches[table]
            block = entry_index // cache.entries_per_block
            self._writeback(table, block, now_ns)
            # Clean the block in place (a zero-capacity cache holds none).
            blocks = cache._blocks
            if block in blocks:
                blocks[block] = False
        elif now_ns - self._last_periodic_flush_ns >= self._flush_interval_ns:
            self._last_periodic_flush_ns = now_ns
            for name, cache in self.caches.items():
                for block in cache.dirty_blocks():
                    self._writeback(name, block, now_ns)
                cache.clean_all()

    @property
    def last_periodic_flush_ns(self) -> float:
        """Sim time of the most recent periodic full flush (0.0 before any).

        Only meaningful under ``PERIODIC_WRITEBACK``; the fault-injection
        crash model (:mod:`repro.faults`) reads it to bound what a crash
        can strand in the dirty caches.
        """
        return self._last_periodic_flush_ns

    def replay(self, touches: list, now_ns: float) -> None:
        """Post a batch of functional-update touches (non-blocking).

        ``touches`` is the flat ``(table, entry, op)`` triple list the
        :class:`~repro.core.tables.DedupIndex` mutators fill, applied in
        order at ``now_ns``, each one :meth:`access`: a ``READ`` a lookup,
        a ``WRITE`` a dirtying lookup, an ``INSERT`` a new entry's
        allocation with nothing to fetch.  DeWrite's write body builds one
        only when some touched block is not resident (other than a new
        hash entry's insert into a cache with room); resident touches take
        the same hit and insert arms inline there.
        """
        access = self.access
        it = iter(touches)
        for table, index, op in zip(it, it, it):
            access(table, index, op != READ, now_ns, False, op != INSERT)

    def flush(self, now_ns: float) -> int:
        """Write back every dirty block (shutdown / end of run)."""
        count = 0
        for table, cache in self.caches.items():
            for block in cache.flush():
                self._writeback(table, block, now_ns)
                count += 1
        return count

    def hit_rates(self) -> dict[str, float]:
        """Per-cache hit rates (Fig. 21)."""
        return {name: cache.hit_rate for name, cache in self.caches.items()}

    def reset_stats(self) -> None:
        """Zero cache/traffic counters after warmup; contents stay resident."""
        for cache in self.caches.values():
            cache.reset_stats()
        self.metadata_reads = 0
        self.metadata_writebacks = 0

    def verify(self) -> None:
        """Check every metadata cache plus the traffic counters.

        Raises ``ValueError`` on the first structural breach; called by the
        runtime invariant pass after every simulated request batch.
        """
        for cache in self.caches.values():
            cache.verify()
        if self.metadata_reads < 0 or self.metadata_writebacks < 0:
            raise ValueError("negative metadata traffic counter")

    def _writeback(self, table: TableName, block: int, now_ns: float) -> None:
        base, table_lines = self._line_map[table]
        line = base + block % table_lines
        self._payload_version += 1
        payload = self._payloads.pad_int(line, self._payload_version, self._line_size)
        self.nvm.write_complete_ns(line, payload, now_ns)
        self.metadata_writebacks += 1
