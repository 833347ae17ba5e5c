"""DedupIndex: state transitions, invariants, colocation, layout.

Includes a hypothesis model-based test driving random duplicate/unique
transitions against a reference model of logical memory.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tables import (
    INSERT,
    READ,
    WRITE,
    DedupIndex,
    DedupIndexError,
    MetadataLayout,
)


def make_index(lines: int = 1024, cap: int = 255) -> DedupIndex:
    return DedupIndex(total_lines=lines, reference_cap=cap)


def sink() -> list:
    return []


def triples(touches: list) -> list[tuple]:
    """Regroup a flat touch list into its (table, entry, op) triples."""
    assert len(touches) % 3 == 0
    it = iter(touches)
    return list(zip(it, it, it))


class TestUniqueWrites:
    def test_first_write_lands_in_own_slot(self):
        index = make_index()
        dest = index.apply_unique(5, crc=0xAB, touches=sink())
        assert dest == 5
        assert index.physical_of(5) == 5
        assert index.content_crc(5) == 0xAB
        assert index.reference_of(5) == 1
        index.check_invariants()

    def test_rewrite_in_place(self):
        index = make_index()
        index.apply_unique(5, crc=1, touches=sink())
        dest = index.apply_unique(5, crc=2, touches=sink())
        assert dest == 5
        assert index.content_crc(5) == 2
        assert index.candidate_entry(1) is None
        assert not index._free_stack  # the freed slot was taken back
        index.check_invariants()

    def test_relocation_when_own_slot_referenced(self):
        index = make_index()
        index.apply_unique(5, crc=1, touches=sink())
        index.apply_duplicate(6, target=5, touches=sink())  # 6 references line 5
        dest = index.apply_unique(5, crc=2, touches=sink())
        # 5's own slot still holds the data 6 references; new data relocated.
        assert dest != 5
        assert index.content_crc(5) == 1
        assert index.physical_of(5) == dest
        assert index.physical_of(6) == 5
        assert index.relocations == 1
        index.check_invariants()

    def test_touches_recorded(self):
        index = make_index()
        touches = sink()
        index.apply_unique(5, crc=1, touches=touches)
        tables = {table for table, _, _ in triples(touches)}
        assert {"inverted_hash", "hash_table", "address_map", "fsm"} <= tables

    def test_fresh_insert_flagged(self):
        index = make_index()
        touches = sink()
        index.apply_unique(5, crc=1, touches=touches)
        hash_ops = [op for table, _, op in triples(touches) if table == "hash_table"]
        assert INSERT in hash_ops


class TestTouchOrder:
    """The exact (table, entry, op) sequence each transition charges.

    The metadata caches apply touches in list order, so the order is part
    of the simulated timing, not an implementation detail.
    """

    def test_unique_into_fresh_bucket(self):
        index = make_index()
        touches = sink()
        index.apply_unique(5, crc=1, touches=touches)
        assert triples(touches) == [
            ("inverted_hash", 5, WRITE),
            ("hash_table", 1, INSERT),
            ("address_map", 5, WRITE),
            ("fsm", 5, WRITE),
        ]

    def test_unique_into_existing_bucket(self):
        index = make_index()
        index.apply_unique(5, crc=1, touches=sink())
        touches = sink()
        index.apply_unique(6, crc=1, touches=touches)  # same fingerprint
        assert triples(touches) == [
            ("inverted_hash", 6, WRITE),
            ("hash_table", 1, WRITE),
            ("address_map", 6, WRITE),
            ("fsm", 6, WRITE),
        ]

    def test_relocation(self):
        index = make_index(lines=1024)
        index.apply_unique(5, crc=1, touches=sink())
        index.apply_duplicate(6, target=5, touches=sink())
        touches = sink()
        dest = index.apply_unique(5, crc=2, touches=touches)
        assert dest == 1023  # fresh allocations descend from the top
        assert triples(touches) == [
            ("inverted_hash", 5, READ),  # release: 5 still referenced by 6
            ("hash_table", 1, WRITE),
            ("inverted_hash", 1023, WRITE),
            ("hash_table", 2, INSERT),
            ("address_map", 5, WRITE),
            ("fsm", 1023, WRITE),
        ]

    def test_duplicate_over_last_reference(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_unique(2, crc=8, touches=sink())
        touches = sink()
        index.apply_duplicate(2, target=1, touches=touches)
        assert triples(touches) == [
            ("inverted_hash", 2, READ),
            # Last reference: the release frees line 2 (three writes).
            ("hash_table", 8, WRITE),
            ("inverted_hash", 2, WRITE),
            ("fsm", 2, WRITE),
            ("address_map", 2, WRITE),
            ("hash_table", 7, WRITE),
        ]

    def test_same_target_rewrite_touches_nothing(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        touches = sink()
        index.apply_duplicate(2, target=1, touches=touches)
        assert touches == []

    def test_counter_slots(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        touches = sink()
        index.bump_counter(1, touches)
        index.bump_counter(2, touches)
        assert triples(touches) == [("address_map", 1, WRITE), ("inverted_hash", 2, WRITE)]

    def test_overflow_counter_charged_as_address_map(self):
        index = make_index(lines=8)
        index.apply_unique(1, crc=2, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        index.apply_unique(1, crc=3, touches=sink())  # 1 relocates (slot kept for 2)
        assert index.counter_slot(1) == "overflow"
        touches = sink()
        index.bump_counter(1, touches)
        assert triples(touches) == [("address_map", 1, WRITE)]


class TestDuplicateWrites:
    def test_duplicate_maps_and_references(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        assert index.physical_of(2) == 1
        assert index.reference_of(1) == 2
        index.check_invariants()

    def test_silent_duplicate_is_noop(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())  # rewrite, same map
        assert index.reference_of(1) == 2
        index.check_invariants()

    def test_duplicate_frees_old_exclusive_line(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_unique(2, crc=8, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        assert not index.holds_data(2)  # old content freed
        assert index.candidate_entry(8) is None
        index.check_invariants()

    def test_duplicate_to_empty_target_rejected(self):
        index = make_index()
        with pytest.raises(DedupIndexError, match="holds no data"):
            index.apply_duplicate(2, target=1, touches=sink())

    def test_duplicate_to_saturated_target_rejected(self):
        index = make_index(cap=2)
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())  # ref = 2 = cap
        with pytest.raises(DedupIndexError, match="saturated"):
            index.apply_duplicate(3, target=1, touches=sink())

    def test_remap_releases_previous_target(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_unique(2, crc=8, touches=sink())
        index.apply_duplicate(3, target=1, touches=sink())
        index.apply_duplicate(3, target=2, touches=sink())
        assert index.reference_of(1) == 1
        assert index.reference_of(2) == 2
        index.check_invariants()


class TestReferenceSaturation:
    def test_saturated_entries_pin(self):
        index = make_index(cap=3)
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        index.apply_duplicate(3, target=1, touches=sink())  # ref = 3 = cap
        assert index.pinned_lines == 1
        # Releasing a reference from a pinned line does not decrement.
        index.apply_unique(2, crc=9, touches=sink())
        assert index.reference_of(1) == 3
        index.check_invariants()

    def test_free_line_recycled(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_unique(2, crc=8, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())  # frees line 2
        index.apply_duplicate(1, target=1, touches=sink())
        # A relocation should reuse the freed line 2 eventually.
        index.apply_duplicate(3, target=1, touches=sink())
        dest = index.apply_unique(4, crc=10, touches=sink())
        assert dest == 4  # own slot free; no relocation needed
        index.check_invariants()


class TestCounters:
    def test_counters_monotonic_per_physical_line(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        first = index.bump_counter(1, sink())
        second = index.bump_counter(1, sink())
        assert second == first + 1
        assert index.peek_counter(1) == second

    def test_counter_survives_free_and_realloc(self):
        # Pad-uniqueness: the counter of a physical line never resets.
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.bump_counter(1, sink())
        index.apply_unique(2, crc=8, touches=sink())
        index.apply_duplicate(1, target=2, touches=sink())  # frees line 1
        assert index.peek_counter(1) == 1

    def test_counter_slot_non_dedup_line(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        assert index.counter_slot(1) == "address_map"

    def test_counter_slot_dedup_line(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        # Logical 2 is deduplicated; physical 2 holds nothing.
        assert index.counter_slot(2) == "inverted_hash"

    def test_counter_slot_overflow(self):
        # Logical X deduplicated AND physical X reallocated: both slots busy.
        index = make_index(lines=8)
        index.apply_unique(0, crc=1, touches=sink())
        index.apply_duplicate(1, target=0, touches=sink())  # frees line 1? never held
        # Occupy physical line 1 via relocation: make line 1's slot the
        # allocation target by filling 0's chain.
        index.apply_unique(1, crc=2, touches=sink())  # 1 stores own data again
        index.apply_duplicate(2, target=1, touches=sink())  # 2 -> 1
        index.apply_unique(1, crc=3, touches=sink())  # 1 relocates (slot kept for 2)
        reloc = index.physical_of(1)
        assert reloc != 1
        # Now: logical 1 dedup'd/relocated, physical 1 holds data for 2.
        assert index.counter_slot(1) == "overflow"
        assert index.overflow_counters() >= 0
        index.check_invariants()


class TestAllocation:
    def test_device_full(self):
        index = make_index(lines=4)
        for logical in range(4):
            index.apply_unique(logical, crc=logical + 10, touches=sink())
        # All four lines hold data referenced by their own logicals; force
        # relocations until the allocator runs dry.
        index.apply_duplicate(1, target=0, touches=sink())  # frees 1
        dest = index.apply_unique(2, crc=99, touches=sink())
        assert dest == 2  # rewrite in place

    def test_fresh_allocations_descend_from_top(self):
        index = make_index(lines=100)
        index.apply_unique(0, crc=1, touches=sink())
        index.apply_duplicate(1, target=0, touches=sink())
        index.apply_unique(1, crc=2, touches=sink())  # own slot free -> in place
        index.apply_duplicate(2, target=0, touches=sink())
        index.apply_unique(0, crc=3, touches=sink())  # 0 referenced by 2? no...
        index.check_invariants()


class TestHistogramAndStats:
    def test_reference_histogram(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_unique(2, crc=8, touches=sink())
        index.apply_duplicate(3, target=1, touches=sink())
        histogram = index.reference_histogram()
        assert histogram[1] == 1
        assert histogram[2] == 1

    def test_live_and_dedup_counts(self):
        index = make_index()
        index.apply_unique(1, crc=7, touches=sink())
        index.apply_duplicate(2, target=1, touches=sink())
        assert index.live_lines() == 1
        assert index.deduplicated_logicals() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DedupIndex(total_lines=0)
        with pytest.raises(ValueError):
            DedupIndex(total_lines=10, reference_cap=0)


class TestModelBased:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 5), st.booleans()),
        max_size=120,
    ))
    def test_random_transitions_preserve_invariants(self, operations):
        """Random unique/duplicate writes against a logical-content model."""
        index = make_index(lines=256)
        model: dict[int, int] = {}  # logical -> content id
        next_content = 100

        for logical, content_choice, make_unique in operations:
            if make_unique or not model:
                next_content += 1
                crc = next_content
                index.apply_unique(logical, crc=crc, touches=sink())
                model[logical] = crc
            else:
                # Duplicate an existing logical's content.
                source = sorted(model)[content_choice % len(model)]
                crc = model[source]
                target = index.physical_of(source)
                if target is None or index.reference_of(target) >= 255:
                    continue
                if index.content_crc(target) != crc:
                    continue
                index.apply_duplicate(logical, target=target, touches=sink())
                model[logical] = crc
            index.check_invariants()

        # Every written logical resolves to a line holding its content.
        for logical, crc in model.items():
            physical = index.physical_of(logical)
            assert physical is not None
            assert index.content_crc(physical) == crc


class TestMetadataLayout:
    def make_layout(self) -> MetadataLayout:
        return MetadataLayout(total_lines=1_000_000, line_size_bytes=256)

    def test_tables_fit_and_leave_data_region(self):
        layout = self.make_layout()
        assert layout.data_lines + layout.metadata_lines == 1_000_000
        assert layout.data_lines > 0.9 * 1_000_000

    def test_table_regions_disjoint(self):
        layout = self.make_layout()
        regions = []
        for table in ("address_map", "inverted_hash", "hash_table", "fsm"):
            base = layout.table_base(table)
            regions.append((base, base + layout.table_lines[table]))
        regions.sort()
        for (_, end), (start, _) in zip(regions, regions[1:]):
            assert end <= start

    def test_nvm_line_within_region(self):
        layout = self.make_layout()
        for table in ("address_map", "inverted_hash", "hash_table", "fsm"):
            base = layout.table_base(table)
            size = layout.table_lines[table]
            for block in (0, 1, 10**9):
                line = layout.nvm_line_for(table, block)
                assert base <= line < base + size

    def test_metadata_fraction_near_paper_estimate(self):
        layout = self.make_layout()
        fraction = layout.metadata_lines / 1_000_000
        # (33 + 33 + 72 + 1) bits / 2048 bits ~ 6.8 %.
        assert 0.05 <= fraction <= 0.08

    def test_too_small_device_rejected(self):
        layout = MetadataLayout(total_lines=3, line_size_bytes=256)
        with pytest.raises(ValueError, match="too small"):
            _ = layout.data_lines
