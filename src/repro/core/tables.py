"""DeWrite's four deduplication data structures (paper §III-B2).

The controller separates *function* from *timing*: this module is the purely
functional state machine over the four tables —

- **address mapping table**: logical line -> physical line holding its data
  (many-to-one once lines deduplicate);
- **hash table**: CRC-32 -> {physical line: 8-bit reference count}, the
  duplication index (collision chains allowed, references saturate at 255);
- **inverted hash table**: physical line -> CRC of its stored content, used
  to clean stale hashes on rewrite;
- **free space management (FSM) table**: 1 bit per line, free/used.

Every mutating method appends flat ``(table, entry, op)`` triples to the
caller's list, naming the table entries it read or wrote in order; ``op`` is
:data:`READ`, :data:`WRITE` or :data:`INSERT` (a write that creates a
brand-new hash entry, so a cache miss allocates without an NVM fetch).
:meth:`~repro.core.dedup_engine.MetadataSystem.replay` charges such a list
through the metadata caches, so the functional core stays trivially
testable (the property tests drive it directly).

The mutators are the functional reference, not the hot path: DeWrite's
write body (:meth:`repro.core.dewrite.DeWriteController._request_bodies`)
makes the same transitions and touches inline, and builds the same flat
triple list for ``replay`` only when some touched metadata block misses.
``tests/core/test_inline_duplicate_arm.py`` replays every decision the
body makes through these mutators and checks that tables and caches agree.

Counters for counter-mode encryption are kept per *physical* line and never
reset (pad-uniqueness invariant, §II-B); where each counter physically
resides — the null slot of the address-mapping entry, the null slot of the
inverted-hash entry, or the rare overflow region — is the colocation scheme
of §III-C, implemented in :meth:`DedupIndex.counter_slot`.

One gap in the paper is patched here and counted: §III-C claims one of the
two slots of line X is always null, but when logical X is deduplicated
*and* physical X was reallocated to hold another line's data, both slots
are occupied.  Those counters go to a small overflow store
(``overflow_counters`` statistic tracks how rare this is).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal

from repro.containers import PAGE_MASK, PAGE_SHIFT, PagedCounterStore, new_page

TableName = Literal["address_map", "inverted_hash", "hash_table", "fsm"]

TABLE_NAMES: tuple[TableName, ...] = ("address_map", "inverted_hash", "hash_table", "fsm")

# Touch op codes, the third element of each (table, entry, op) triple.
READ = 0
WRITE = 1
INSERT = 3  # write plus insert: a brand-new hash entry, nothing to fetch


class DedupIndexError(RuntimeError):
    """Internal invariant of the dedup index was violated."""


class DedupIndex:
    """Functional state of all four tables plus the colocated counters."""

    def __init__(self, total_lines: int, reference_cap: int = 255) -> None:
        if total_lines <= 0:
            raise ValueError("total_lines must be positive")
        if reference_cap < 1:
            raise ValueError("reference cap must be at least 1")
        self.total_lines = total_lines
        self.reference_cap = reference_cap

        self._mapping: dict[int, int] = {}  # logical -> physical (written lines only)
        self._stored: dict[int, int] = {}  # physical -> crc of live content
        self._hash_table: dict[int, dict[int, int]] = {}  # crc -> {physical: ref}
        # physical -> write counter, array-backed (8 B per touched line,
        # no boxed ints): counters are written once per stored line and
        # monotonically grow, exactly the dense-page access pattern
        # PagedCounterStore is built for.
        self._counters = PagedCounterStore()
        self._counter_pages = self._counters.pages

        # Freed physical lines are recycled LIFO; fresh allocations grow
        # downward from the top of the device so they stay clear of the
        # logical addresses applications touch first.  The stack is an
        # insertion-ordered dict, so a freed line stored again in its own
        # slot leaves it at once: it never holds a stored line.
        self._free_stack: dict[int, None] = {}
        self._next_fresh = total_lines - 1

        self.relocations = 0
        self.pinned_lines = 0  # entries whose reference saturated at the cap

    # -- queries ---------------------------------------------------------

    def candidate_entry(self, crc: int) -> dict[int, int] | None:
        """Live ``{physical: reference}`` dict under ``crc`` (None when absent).

        Detection iterates this in place; callers must not mutate it.
        """
        return self._hash_table.get(crc)

    @property
    def hash_table(self) -> dict[int, dict[int, int]]:
        """The live hash table, ``crc -> {physical: reference}``.

        For membership tests on the write path; callers must not mutate it.
        """
        return self._hash_table

    def content_crc(self, physical: int) -> int | None:
        """CRC of the content stored at a physical line (inverted table)."""
        return self._stored.get(physical)

    def holds_data(self, physical: int) -> bool:
        """FSM view: whether the physical line holds live content."""
        return physical in self._stored

    def reference_of(self, physical: int) -> int:
        """Reference count of the content at ``physical`` (0 if free)."""
        crc = self._stored.get(physical)
        if crc is None:
            return 0
        return self._hash_table[crc][physical]

    # -- counters & colocation ------------------------------------------

    def counter_slot(self, physical: int) -> TableName | Literal["overflow"]:
        """Where the per-line counter of ``physical`` resides (§III-C).

        If logical ``physical`` is not deduplicated its address-map slot is
        null and hosts the counter; else if physical ``physical`` holds no
        data its inverted-hash slot is null and hosts it; else both slots
        are occupied and the counter overflows.
        """
        if self._mapping.get(physical, physical) == physical:
            return "address_map"
        if physical not in self._stored:
            return "inverted_hash"
        return "overflow"

    def peek_counter(self, physical: int) -> int:
        """Counter value without recording a metadata touch (timing-free)."""
        return self._counters.get(physical)

    def physical_of(self, logical: int) -> int | None:
        """Mapping lookup without recording a metadata touch (timing-free)."""
        return self._mapping.get(logical)

    def bump_counter(self, physical: int, touches: list) -> int:
        """Increment and return the counter (once per physical write).

        Records the counter write in the slot :meth:`counter_slot` names,
        with the rule inlined.  An overflowed counter is charged as an
        address-map touch: the overflow store is tiny and on-chip in the
        patched design, but not free.  The functional reference for the
        DeWrite write body's inline bump (see the module docstring).
        """
        pages = self._counter_pages
        page_index = physical >> PAGE_SHIFT
        page = pages.get(page_index)
        if page is None:
            page = pages[page_index] = new_page()
        slot = physical & PAGE_MASK
        value = page[slot] + 1
        page[slot] = value
        if self._mapping.get(physical, physical) == physical or physical in self._stored:
            touches += ("address_map", physical, WRITE)
        else:
            touches += ("inverted_hash", physical, WRITE)
        return value

    def overflow_counters(self) -> int:
        """How many counters currently live in the overflow store."""
        return sum(1 for p in self._counters.keys() if self.counter_slot(p) == "overflow")

    def counter_items(self) -> tuple[tuple[int, int], ...]:
        """Snapshot of every (physical line, encryption counter) pair.

        Used by the runtime invariant checker to verify counters are
        monotonically non-decreasing across operations (§II-B pad
        uniqueness); a snapshot keeps the checker out of private state.
        """
        return tuple(self._counters.items())

    # -- state transitions -------------------------------------------------

    def apply_duplicate(self, logical: int, target: int, touches: list) -> None:
        """Record that ``logical``'s new content duplicates line ``target``.

        The caller has already verified byte equality and that ``target``'s
        reference is below the cap.  The functional reference for the
        DeWrite write body's duplicate arm (see the module docstring).
        """
        crc = self._stored.get(target)
        if crc is None:
            raise DedupIndexError(f"duplicate target {target} holds no data")
        old = self._mapping.get(logical)
        if old == target:
            # Rewrite of identical content already mapped there: pure no-op.
            return
        ref = self._hash_table[crc][target]
        if ref >= self.reference_cap:
            raise DedupIndexError(f"target {target} reference saturated; caller must reject")
        self._release(logical, touches)
        self._mapping[logical] = target
        self._hash_table[crc][target] = ref + 1
        if ref + 1 == self.reference_cap:
            self.pinned_lines += 1
        touches += ("address_map", logical, WRITE, "hash_table", crc, WRITE)

    def apply_unique(self, logical: int, crc: int, touches: list) -> int:
        """Store new unique content for ``logical``; returns the destination.

        Picks the logical line's own physical slot when free (the common
        case), otherwise allocates via the FSM table (a relocation).  The
        functional reference for the DeWrite write body's unique arm (see
        the module docstring).
        """
        self._release(logical, touches)
        if logical not in self._stored:
            dest = logical
            self._free_stack.pop(logical, None)
        else:
            dest = self._allocate()
            self.relocations += 1
        self._stored[dest] = crc
        fresh_bucket = crc not in self._hash_table
        self._hash_table.setdefault(crc, {})[dest] = 1
        self._mapping[logical] = dest
        touches += (
            "inverted_hash", dest, WRITE,
            "hash_table", crc, INSERT if fresh_bucket else WRITE,
            "address_map", logical, WRITE,
            "fsm", dest, WRITE,
        )
        return dest

    def _release(self, logical: int, touches: list) -> None:
        """Drop ``logical``'s reference to its current content, freeing the
        physical line when it was the last reference (the functional
        reference for the DeWrite write body's release)."""
        old = self._mapping.pop(logical, None)
        if old is None:
            return
        crc_old = self._stored.get(old)
        if crc_old is None:
            raise DedupIndexError(f"mapping of {logical} points at empty line {old}")
        touches += ("inverted_hash", old, READ)
        refs = self._hash_table[crc_old]
        ref = refs[old]
        if ref >= self.reference_cap:
            # Saturated entries lost their exact count; they stay pinned.
            return
        if ref == 1:
            del refs[old]
            if not refs:
                del self._hash_table[crc_old]
            del self._stored[old]
            self._free_stack[old] = None
            touches += (
                "hash_table", crc_old, WRITE,
                "inverted_hash", old, WRITE,
                "fsm", old, WRITE,
            )
        else:
            refs[old] = ref - 1
            touches += ("hash_table", crc_old, WRITE)

    def _allocate(self) -> int:
        """Pop a free physical line (recycled first, then fresh top-down)."""
        if self._free_stack:
            return self._free_stack.popitem()[0]
        while self._next_fresh >= 0 and self._next_fresh in self._stored:
            self._next_fresh -= 1
        if self._next_fresh < 0:
            raise DedupIndexError("NVM device is full; no free line to allocate")
        fresh = self._next_fresh
        self._next_fresh -= 1
        return fresh

    # -- analysis helpers --------------------------------------------------

    def reference_histogram(self) -> Counter[int]:
        """Distribution of reference counts over live lines (Fig. 7)."""
        histogram: Counter[int] = Counter()
        for refs in self._hash_table.values():
            for ref in refs.values():
                histogram[ref] += 1
        return histogram

    def live_lines(self) -> int:
        """Physical lines currently holding data."""
        return len(self._stored)

    def deduplicated_logicals(self) -> int:
        """Logical lines currently mapped away from their own slot."""
        return sum(1 for logical, phys in self._mapping.items() if phys != logical)

    def check_invariants(self) -> None:
        """Assert cross-table consistency (used heavily by property tests).

        Invariants:
        - every mapping target holds data;
        - stored/inverted and hash-table entries mirror each other;
        - each entry's reference equals the number of logicals mapped to it
          (exact below the cap; at least the cap once saturated);
        - no line on the free stack holds data.
        """
        mapped_refs: Counter[int] = Counter(self._mapping.values())
        for logical, phys in self._mapping.items():
            if phys not in self._stored:
                raise DedupIndexError(f"mapping {logical}->{phys} targets an empty line")
        for phys, crc in self._stored.items():
            entry = self._hash_table.get(crc)
            if entry is None or phys not in entry:
                raise DedupIndexError(f"stored line {phys} missing from hash table")
            ref = entry[phys]
            if ref < self.reference_cap and ref != mapped_refs.get(phys, 0):
                raise DedupIndexError(
                    f"line {phys}: reference {ref} != mapped logicals {mapped_refs.get(phys, 0)}"
                )
        for crc, entries in self._hash_table.items():
            for phys in entries:
                if self._stored.get(phys) != crc:
                    raise DedupIndexError(f"hash entry {crc:#x}->{phys} not mirrored in inverted table")
        for phys in self._free_stack:
            if phys in self._stored:
                raise DedupIndexError(f"free stack holds stored line {phys}")

    def verify(self) -> None:
        """Full consistency check: cross-table mirroring plus counter laws.

        Extends :meth:`check_invariants` with the encryption-counter
        contract the paper's §III-C colocation relies on: every physical
        line holding live data has been encrypted at least once (counter
        >= 1), counters are never negative, and every mapping stays inside
        the device.  Raises :class:`DedupIndexError` on the first breach.
        """
        self.check_invariants()
        for logical, phys in self._mapping.items():
            if not 0 <= logical < self.total_lines or not 0 <= phys < self.total_lines:
                raise DedupIndexError(
                    f"mapping {logical}->{phys} leaves the device [0, {self.total_lines})"
                )
        for phys, counter in self._counters.items():
            if counter < 0:
                raise DedupIndexError(f"line {phys} has negative counter {counter}")
        for phys in self._stored:
            if self._counters.get(phys) < 1:
                raise DedupIndexError(
                    f"line {phys} holds live data but was never encrypted (counter 0)"
                )


@dataclass(frozen=True)
class MetadataLayout:
    """Physical placement of the four tables inside the NVM (§III-B2).

    The metadata region sits at the top of the device; each table occupies a
    contiguous run of lines.  The timing layer maps a (table, cache-block)
    pair to a concrete NVM line so metadata traffic contends for banks like
    any other access.
    """

    total_lines: int
    line_size_bytes: int
    address_map_entry_bits: int = 33
    inverted_hash_entry_bits: int = 33
    hash_entry_bits: int = 72
    fsm_entry_bits: int = 1

    def _table_lines(self, entry_bits: int) -> int:
        line_bits = self.line_size_bytes * 8
        return max(1, (self.total_lines * entry_bits + line_bits - 1) // line_bits)

    @property
    def table_lines(self) -> dict[TableName, int]:
        """Lines occupied by each table."""
        return {
            "address_map": self._table_lines(self.address_map_entry_bits),
            "inverted_hash": self._table_lines(self.inverted_hash_entry_bits),
            "hash_table": self._table_lines(self.hash_entry_bits),
            "fsm": self._table_lines(self.fsm_entry_bits),
        }

    @property
    def metadata_lines(self) -> int:
        """Total lines consumed by metadata."""
        return sum(self.table_lines.values())

    @property
    def data_lines(self) -> int:
        """Lines left for application data."""
        remaining = self.total_lines - self.metadata_lines
        if remaining <= 0:
            raise ValueError("device too small to host the metadata region")
        return remaining

    def table_base(self, table: TableName) -> int:
        """First NVM line of a table's region."""
        base = self.data_lines
        for name in TABLE_NAMES:
            if name == table:
                return base
            base += self.table_lines[name]
        raise KeyError(f"unknown table {table!r}")

    def nvm_line_for(self, table: TableName, block_index: int) -> int:
        """NVM line backing one metadata cache block of ``table``."""
        lines = self.table_lines[table]
        return self.table_base(table) + block_index % lines
