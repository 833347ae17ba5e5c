"""On-chip metadata cache (paper §III-B2, Fig. 21).

Secure-NVM designs already carry a write-back counter cache in the memory
controller; DeWrite reuses it to buffer the hot entries of all four dedup
tables.  We model four logical caches (hash, address-map, inverted-hash,
FSM) sharing the 2 MB budget:

- the three *sequentially stored* tables cache fixed-size **prefetch
  blocks** — one NVM access loads ``prefetch_entries`` consecutive entries,
  exploiting the address locality §III-B2 describes;
- the **hash cache** holds individual entries (hash values have no
  locality to prefetch).

The cache only models *presence and dirtiness*; table contents always live
in the functional :class:`repro.core.tables.DedupIndex`, so there is no
coherence problem to get wrong.  A miss costs the caller an NVM metadata
read (plus the direct-encryption decrypt latency); evicting a dirty block
costs a posted NVM metadata write — the source of the ~2.6 % extra writes
§IV-B reports.
"""

from __future__ import annotations

from collections import OrderedDict


class MetadataCache:
    """LRU, write-back, write-allocate cache over table entries."""

    def __init__(self, name: str, capacity_blocks: int, entries_per_block: int = 1) -> None:
        """Create a cache.

        Args:
            name: label for reports ("hash", "address_map", ...).
            capacity_blocks: how many blocks fit (0 disables caching — every
                access misses, nothing is retained).
            entries_per_block: prefetch granularity; entry index // this
                value is the block index.
        """
        if capacity_blocks < 0:
            raise ValueError("capacity must be non-negative")
        if entries_per_block < 1:
            raise ValueError("entries_per_block must be at least 1")
        self.name = name
        self.capacity_blocks = capacity_blocks
        self.entries_per_block = entries_per_block
        self._blocks: OrderedDict[int, bool] = OrderedDict()  # block -> dirty
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def block_of(self, entry_index: int) -> int:
        """Block an entry index falls into."""
        return entry_index // self.entries_per_block

    def probe(self, entry_index: int) -> bool:
        """Whether the entry's block is resident, with no side effects.

        Used by the PNA scheme, which must know if the hash entry is cached
        before deciding whether to pay the in-NVM query on a miss.
        """
        return self.block_of(entry_index) in self._blocks

    def access(
        self, entry_index: int, write: bool, is_insert: bool = False
    ) -> tuple[bool, int, int | None]:
        """Touch one entry; allocate its block on miss.

        Returns a plain ``(hit, block, evicted)`` tuple: whether it hit, the
        entry's block, and — when the allocation evicted a dirty block —
        that block's index, else None (the caller schedules its writeback).
        ``is_insert`` marks the creation of a brand-new entry: the
        allocation is not a failed lookup, so it is excluded from the
        hit/miss statistics (Fig. 21 measures query hit rates).
        """
        block = entry_index // self.entries_per_block
        blocks = self._blocks
        if block in blocks:
            if not is_insert:
                self.hits += 1
            blocks.move_to_end(block)
            if write:
                blocks[block] = True
            return True, block, None

        if not is_insert:
            self.misses += 1
        evicted: int | None = None
        if self.capacity_blocks == 0:
            # Degenerate cache: nothing retained; a write goes straight out.
            if write:
                self.writebacks += 1
                evicted = block
            return False, block, evicted

        if len(self._blocks) >= self.capacity_blocks:
            victim, dirty = self._blocks.popitem(last=False)
            if dirty:
                self.writebacks += 1
                evicted = victim
        self._blocks[block] = write
        return False, block, evicted

    def flush(self) -> list[int]:
        """Write back and drop every dirty block (e.g. at shutdown).

        Returns the dirty block indices in LRU order.
        """
        dirty = [block for block, is_dirty in self._blocks.items() if is_dirty]
        self.writebacks += len(dirty)
        self._blocks.clear()
        return dirty

    def dirty_blocks(self) -> list[int]:
        """Currently dirty blocks (in LRU order), without side effects."""
        return [block for block, dirty in self._blocks.items() if dirty]

    def clean_all(self) -> None:
        """Clear every dirty bit (after a bulk writeback)."""
        for block in self._blocks:
            self._blocks[block] = False

    def reset_stats(self) -> None:
        """Zero hit/miss/writeback counters, keeping contents resident.

        Used after a warmup phase so hit rates reflect steady state, the
        way the paper warms caches for 10 M instructions before measuring.
        """
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction (Fig. 21's y-axis)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def resident_blocks(self) -> int:
        """Blocks currently cached."""
        return len(self._blocks)

    def stats_dict(self) -> dict[str, float]:
        """JSON-shaped statistics snapshot (manifests, metrics export)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "hit_rate": self.hit_rate,
            "resident_blocks": len(self._blocks),
        }

    def verify(self) -> None:
        """Check the cache's structural invariants; raises ``ValueError``.

        Capacity is never exceeded (a zero-capacity cache retains nothing)
        and the statistics counters are non-negative — the checks the
        runtime invariant pass (:mod:`repro.check.invariants`) runs after
        every simulated request batch.
        """
        if self.capacity_blocks == 0:
            if self._blocks:
                raise ValueError(
                    f"cache {self.name!r}: zero capacity but {len(self._blocks)} resident blocks"
                )
        elif len(self._blocks) > self.capacity_blocks:
            raise ValueError(
                f"cache {self.name!r}: {len(self._blocks)} resident blocks exceed "
                f"capacity {self.capacity_blocks}"
            )
        if self.hits < 0 or self.misses < 0 or self.writebacks < 0:
            raise ValueError(f"cache {self.name!r}: negative statistics counter")
